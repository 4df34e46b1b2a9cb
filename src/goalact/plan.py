"""Plan, history, and trajectory data model shared by planner, runner, and eval.

A global plan is an ordered list of (thought, action) steps whose final action
is always Finish.  Executed steps are immutable: re-planning may only rewrite
the pending suffix.  The history is that executed prefix itself: the
plan's own executed `PlanStep`s, oldest first.

A trajectory document's fields, in order, are those its records declare
(a step's action's fields in the action's place), as `records` writes them;
reading one back checks each value against its field's declared type too.
A revision is the plan object itself, not a copy: plans, steps and actions
are frozen, and `mark_executed` copies the payload it is given.  Every
round marks a step executed and walks the plan, so `mark_executed` calls
the constructors, not `dataclasses.replace`, and the walks read `status`,
not the `executed` property.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import PlanError
from .records import read_lines, record_from_dict, record_to_dict

# Built-in skill kinds.  Custom kinds are plain strings registered at runtime.
SEARCHING = "Searching"
CODING = "Coding"
WRITING = "Writing"
FINISH = "Finish"
BUILTIN_KINDS = (SEARCHING, CODING, WRITING, FINISH)

PENDING = "pending"
EXECUTED = "executed"

TRUNCATION_MARKER = "[truncated]"


def truncate_observation(text: str, byte_budget: int) -> str:
    """Clamp an observation to a UTF-8 byte budget, marking the cut; under
    a budget too small for the whole marker, the marker is cut too."""
    raw = text.encode("utf-8")
    if len(raw) <= byte_budget:
        return text
    keep = byte_budget - len(TRUNCATION_MARKER)
    if keep < 0:
        return TRUNCATION_MARKER[:byte_budget]
    clipped = raw[:keep].decode("utf-8", errors="ignore")
    return clipped + TRUNCATION_MARKER


@dataclass(frozen=True)
class SkillAction:
    """A skill kind plus its natural-language objective.

    The payload is filled in during execution (the chosen tool call, the
    script that ran, ...), never by the planner.
    """

    kind: str
    objective: str = ""
    payload: Optional[Mapping[str, Any]] = None

    def render(self) -> str:
        return f"{self.kind}[{self.objective}]"


@dataclass(frozen=True)
class PlanStep:
    index: int
    thought: str
    action: SkillAction
    status: str = PENDING
    observation: Optional[str] = None

    @property
    def executed(self) -> bool:
        return self.status == EXECUTED

    def mark_executed(self, observation: str,
                      payload: Optional[Mapping[str, Any]] = None) -> "PlanStep":
        """Produce the executed version of this step; the original is
        unchanged.  An empty payload leaves the action as it was."""
        action = self.action
        if payload:
            action = SkillAction(action.kind, action.objective, dict(payload))
        return PlanStep(self.index, self.thought, action, EXECUTED, observation)


@dataclass(frozen=True)
class GlobalPlan:
    revision: int
    steps: tuple[PlanStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


# Executed steps, oldest first: what every planning round, skill and
# summary reads.
History = tuple[PlanStep, ...]


def make_plan(steps: Iterable[tuple[str, SkillAction]], revision: int = 1) -> GlobalPlan:
    """Build a pending plan from (thought, action) pairs, numbering from 1."""
    plan_steps = tuple(
        PlanStep(index=i, thought=thought, action=action)
        for i, (thought, action) in enumerate(steps, start=1)
    )
    return GlobalPlan(steps=plan_steps, revision=revision)


def validate_plan(plan: GlobalPlan, max_steps: Optional[int] = None) -> GlobalPlan:
    """Return the plan unchanged iff every structural invariant holds.

    Raises PlanError naming the first that fails: a terminal Finish and no
    other, indices 1..n, executed steps before pending ones, and at most
    `max_steps` steps (when a cap is given).
    """
    if not plan.steps or plan.steps[-1].action.kind != FINISH:
        raise PlanError("a plan must end with a Finish step")
    for step in plan.steps[:-1]:
        if step.action.kind == FINISH:
            raise PlanError(f"Finish at step {step.index} is not terminal")
    for position, step in enumerate(plan.steps, start=1):
        if step.index != position:
            raise PlanError(
                f"step at position {position} carries index {step.index}"
            )
    seen_pending = False
    for step in plan.steps:
        if step.status != EXECUTED:
            seen_pending = True
        elif seen_pending:
            raise PlanError(
                f"executed step {step.index} follows a pending step"
            )
    if max_steps is not None and len(plan.steps) > max_steps:
        raise PlanError(f"{len(plan.steps)} steps exceed the cap of {max_steps}")
    return plan


def history_of(plan: Optional[GlobalPlan]) -> History:
    """The executed prefix of `plan`'s steps: the steps themselves."""
    if plan is None:
        return ()
    for position, step in enumerate(plan.steps):
        if step.status != EXECUTED:
            return plan.steps[:position]
    return plan.steps


def first_pending(plan: GlobalPlan) -> Optional[PlanStep]:
    """The lowest-index pending step, or None when everything executed."""
    for step in plan.steps:
        if step.status != EXECUTED:
            return step
    return None


# --- trajectory record --------------------------------------------------------

TERMINATION_FINISH = "finish"
TERMINATION_MAX_ITERATIONS = "max_iterations"
TERMINATION_FATAL = "fatal_error"


@dataclass
class LlmExchange:
    purpose: str
    model: str
    temperature: float
    messages: list[dict[str, str]]
    response: str
    attempts: int = 1


@dataclass
class ToolCallRecord:
    tool: str
    arguments: dict[str, Any]
    result: str
    ok: bool = True


@dataclass
class Trajectory:
    """The complete persisted record of one task run; a run appends its
    plans, its model calls, each as it was sent, and tool calls to them."""

    task_id: str
    method: str
    revisions: list[GlobalPlan] = field(default_factory=list)
    llm_calls: list[LlmExchange] = field(default_factory=list)
    tool_calls: list[ToolCallRecord] = field(default_factory=list)
    final_answer: Optional[str] = None
    step_count: int = 0
    termination_reason: str = TERMINATION_MAX_ITERATIONS
    degraded: bool = False


# `json.dumps` with these options, made once: a trajectory's document holds
# no cycle, so no container needs the circular-reference check.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"),
                                 check_circular=False)


def encode_trajectory(traj: Trajectory) -> str:
    """One canonical JSON document, suitable for line-delimited logs."""
    return _LINE_ENCODER.encode(record_to_dict(traj))


def decode_trajectory(line: str) -> Trajectory:
    return record_from_dict(Trajectory, json.loads(line))


def write_trajectories(path: Any, trajectories: Sequence[Trajectory]) -> None:
    """Write `path` (os.PathLike or str) fresh, one document per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for traj in trajectories:
            handle.write(encode_trajectory(traj) + "\n")


def read_trajectories(path: Any) -> Iterator[Trajectory]:
    """Yield each trajectory of a log as its line is read; FatalError naming
    the file and line of a malformed one, after every trajectory before it."""
    return read_lines(path, partial(record_from_dict, Trajectory))
