"""Hierarchical execution layer: the skill registry and its executors.

The planner names a skill and an objective; `dispatch` routes to the
matching executor, `run(action, context) -> (observation, payload)`, whose
one model call is `context.ask(prompt)`; the payload (the tool call or
script, or None) is recorded with the action.  `dispatch` is the one place a
skill fault becomes an observation the next planning round can react to: a
kind it cannot run, and a backend outage inside the executor.
`observe_emission` is the one path from a model's tool-call emission to an
observation, a tool fault included; Searching, a Plan-and-Execute sub-task
and a ReAct action all run their emission through it.  `planner` reads the
emission and unfences a script, which Coding runs on `sandbox`.  Finish is
listed for prompt rendering but executed by the run loop, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from .environment import TOOL_DESCRIPTIONS, ToolEnvironment
from .errors import BackendUnavailable, FatalError
from .plan import (
    CODING,
    FINISH,
    SEARCHING,
    WRITING,
    History,
    SkillAction,
    truncate_observation,
)
from .planner import parse_tool_emission, strip_code_fences
from .sandbox import GRAMMAR_REFERENCE, SandboxResult, eval_script

CODING_MARKER = "Computation objective:"
SEARCHING_MARKER = "Retrieval objective:"
WRITING_MARKER = "Writing objective:"


@dataclass
class SkillContext:
    """Everything an executor may need for one action."""

    question: str
    history: History
    env: ToolEnvironment
    ask: Callable[[str], str]
    sandbox_limits: Any  # a sandbox.SandboxLimits
    observation_bytes: int
    writing_budget: int


SkillResult = tuple[str, Optional[dict]]
Executor = Callable[[SkillAction, SkillContext], SkillResult]


@dataclass(frozen=True)
class SkillDescriptor:
    name: str
    description: str
    enabled: bool = True
    run: Optional[Executor] = None


@dataclass(frozen=True)
class SkillRegistry:
    entries: tuple[SkillDescriptor, ...]

    def get(self, kind: str) -> Optional[SkillDescriptor]:
        for entry in self.entries:
            if entry.name == kind:
                return entry
        return None

    def kinds(self) -> tuple[str, ...]:
        return tuple(entry.name for entry in self.entries)

    def enabled_entries(self) -> list[tuple[str, str]]:
        """(name, description) pairs for the prompt menu, Finish always last."""
        listed = [(e.name, e.description) for e in self.entries
                  if e.enabled and e.name != FINISH]
        finish = self.get(FINISH)
        listed.append((finish.name, finish.description))
        return listed

    def disable(self, kind: str) -> "SkillRegistry":
        if kind == FINISH:
            raise FatalError("Finish cannot be disabled")
        entry = self.get(kind)
        if entry is None:
            raise FatalError(f"cannot disable unregistered kind {kind!r}")
        entries = tuple(replace(e, enabled=False) if e.name == kind else e
                        for e in self.entries)
        return SkillRegistry(entries=entries)


def register_skill(registry: SkillRegistry, kind: str,
                   descriptor: SkillDescriptor) -> SkillRegistry:
    """Add a custom kind; identifiers are case-sensitive and must be fresh."""
    if not kind:
        raise FatalError("skill kind identifiers must be non-empty")
    if kind == FINISH:
        raise FatalError("Finish is built in and cannot be re-registered")
    if registry.get(kind) is not None:
        raise FatalError(f"skill kind {kind!r} is already registered")
    entries = registry.entries[:-1] + (replace(descriptor, name=kind),
                                       registry.entries[-1])
    return SkillRegistry(entries=entries)


def default_registry() -> SkillRegistry:
    return SkillRegistry(entries=(
        SkillDescriptor(
            name=SEARCHING,
            description=("Retrieve a record from a data table based on "
                         "information, or filter multiple records that meet "
                         "specific attribute values."),
            run=exec_searching,
        ),
        SkillDescriptor(
            name=CODING,
            description=("If the problem is too complex to be solved by "
                         "querying alone, you may attempt to program a "
                         "solution. You can filter, sort, sum, or iterate "
                         "over queried data."),
            run=exec_coding,
        ),
        SkillDescriptor(
            name=WRITING,
            description=("If content generation (such as a defense statement) "
                         "is needed, you should attempt writing to resolve "
                         "the issue."),
            run=exec_writing,
        ),
        SkillDescriptor(
            name=FINISH,
            description="Provide the final answer and terminate the task.",
            run=None,
        ),
    ))


def dispatch(action: SkillAction, context: SkillContext,
             registry: SkillRegistry) -> SkillResult:
    """Route one action to its executor; returns (observation, payload),
    the observation never empty and truncated to budget.

    Every skill fault comes back as an observation with no payload: a kind
    that is unknown, disabled or has no executor as `Action not executed:
    <why>`, a backend outage in the executor as `<Kind> failed: <outage>`.
    Other backend faults (auth, rule and cassette misses) propagate.
    """
    kind, payload = action.kind, None
    entry = registry.get(kind)
    if entry is None:
        observation = ("Action not executed: "
                       f"no skill registered for kind {kind!r}")
    elif not entry.enabled:
        observation = f"Action not executed: skill {kind!r} is currently disabled"
    elif entry.run is None:
        observation = f"Action not executed: skill {kind!r} has no executor" \
            + (" (Finish is handled by the run loop)" if kind == FINISH else "")
    else:
        try:
            observation, payload = entry.run(action, context)
        except BackendUnavailable as exc:
            observation = f"{kind} failed: {exc}"
    return truncate_observation(observation or "(empty observation)",
                                context.observation_bytes), payload


# --- executors -------------------------------------------------------------------

def _searching_prompt(action: SkillAction, context: SkillContext) -> str:
    return "\n".join([
        "You translate one retrieval objective into exactly one tool call.",
        "Respond with a single JSON object {\"tool\": \"<name>\", \"args\": "
        "{...}} and nothing else. The form Tool[key=value, ...] is also "
        "accepted.",
        "",
        "Available tools:",
        TOOL_DESCRIPTIONS,
        "",
        f"Question: {context.question}",
        f"{SEARCHING_MARKER} {action.objective}",
    ])


def observe_emission(emission: str, env: Any, who: str) -> SkillResult:
    """Run the first tool call of a model emission; (observation, payload).

    The payload is the call as `{"tool", "args"}`.  A get_record result
    renders as its one row, a filter_records result as the list of rows,
    and a failing call as `Tool call <name> failed: <error>`; calls after
    the first are discarded and counted.  An emission with no usable call
    renders as `<who> emitted no usable tool call (<problem>).` with no
    payload.  No text is truncated.
    """
    calls, problem = parse_tool_emission(emission)
    if problem is not None:
        return f"{who} emitted no usable tool call ({problem}).", None
    call, discarded = calls[0], len(calls) - 1
    payload = {"tool": call.tool_name, "args": dict(call.arguments)}
    result = env.call(call)
    if result.error is not None:
        return f"Tool call {call.tool_name} failed: {result.error}", payload
    observation = result.texts[0] if call.tool_name == "get_record" \
        else result.list_text
    if discarded:
        observation += (f" ({discarded} extra emitted call"
                        f"{'s' if discarded > 1 else ''} discarded)")
    return observation, payload


def exec_searching(action: SkillAction, context: SkillContext) -> SkillResult:
    """One retrieval intent, at most one tool call."""
    return observe_emission(context.ask(_searching_prompt(action, context)),
                            context.env, SEARCHING)


def _coding_prompt(action: SkillAction, context: SkillContext) -> str:
    return "\n".join([
        "You write one short script in the sandbox language below to satisfy "
        "a computation objective. Respond with the script only.",
        "",
        GRAMMAR_REFERENCE,
        "",
        "Available tools:",
        TOOL_DESCRIPTIONS,
        "",
        f"Question: {context.question}",
        f"{CODING_MARKER} {action.objective}",
    ])


def render_sandbox_outcome(result: SandboxResult) -> str:
    summary = (f"[{result.tool_calls_used} tool call"
               f"{'s' if result.tool_calls_used != 1 else ''}, "
               f"{result.steps_used} steps]")
    if result.fault is not None:
        return (f"Coding fault ({result.fault.kind}): {result.fault.message} "
                f"{summary}")
    return f"Result: {result.value} {summary}"


def exec_coding(action: SkillAction, context: SkillContext) -> SkillResult:
    """Ask the model for a script, run it, observe the result or fault."""
    source = strip_code_fences(context.ask(_coding_prompt(action, context)))
    result = eval_script(source, context.env, context.sandbox_limits)
    return render_sandbox_outcome(result), {"script": source}


def render_source_material(history: History, budget: int) -> str:
    """History for the writing prompt: newest last, oldest dropped first."""
    blocks = [f"Action: {step.action.render()}\nObservation: {step.observation}"
              for step in history]
    kept: list[str] = []
    used = 0
    for block in reversed(blocks):
        cost = len(block) + 2
        if used + cost > budget and kept:
            break
        if cost > budget and not kept:
            block = block[:budget]
            cost = len(block)
        kept.append(block)
        used += cost
    kept.reverse()
    return "\n\n".join(kept)


def _writing_prompt(action: SkillAction, context: SkillContext) -> str:
    return "\n".join([
        "You compose a finished document from the gathered material below.",
        "Use only facts that appear in the question or the material.",
        "",
        f"Question: {context.question}",
        "",
        "Gathered material:",
        render_source_material(context.history, context.writing_budget),
        "",
        f"{WRITING_MARKER} {action.objective}",
    ])


def exec_writing(action: SkillAction, context: SkillContext) -> SkillResult:
    """One model call; the generated document is the observation."""
    return context.ask(_writing_prompt(action, context)), None
