"""One run loop for every benchmark method; each method is a step policy.

`run_task` owns what the methods share: the trajectory and its recording
wrappers, the iteration cap, the terminal summary and fault handling.  Each
iteration asks the method's policy for one step:

  GoalAct        - re-plans the global plan, then dispatches the first
                   pending step through the skill registry.
  PlanAndSolve   - one plan up front, executed without revision.
  PlanAndExecute - re-planned free-text sub-tasks, each dispatched as the
                   one-call Subtask skill.
  ReAct          - no plan; one thought plus one tool call per iteration.
  CodeAct        - no plan; one sandbox script per iteration.

GoalAct's no_global_plan ablation asks for one next step at a time instead.
A `RunConfig` builds its skill registry and exemplars when it is made, so a
bad setting fails before any run, and every run of that config shares them.
Every model call of a run goes through `RecordingBackend.ask(purpose,
prompt)`, which logs the exchange; a step or skill sees it as `ask(prompt)`.
`planner` reads every completion a policy acts on; this module parses none.
Trouble inside a step degrades to an observation the next iteration can
react to: `skills.observe_emission` runs and renders every tool call a model
emits, a malformed or failing one included, and `skills.dispatch` renders
every skill fault.  A backend outage in a policy's own decision call, or a
plan still unusable after its repair retry, ends the run as fatal_error with
a summary of what it has.  Only configuration faults, auth failures and
scripted-fixture or cassette misses abort a run; the exception carries the
partial trajectory.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Optional

from .backends import BENCHMARK_TEMPERATURE, SURROGATE, user_request
from .environment import (TOOL_DESCRIPTIONS, ToolCall, ToolEnvironment,
                          ToolResult)
from .errors import (
    AuthFailure,
    BackendUnavailable,
    CassetteMiss,
    FatalError,
    PlanError,
    PlanningFailed,
    RuleMiss,
)
from .generator import Task
from .plan import (
    CODING,
    FINISH,
    SEARCHING,
    TERMINATION_FATAL,
    TERMINATION_FINISH,
    TERMINATION_MAX_ITERATIONS,
    WRITING,
    GlobalPlan,
    History,
    LlmExchange,
    PlanStep,
    SkillAction,
    ToolCallRecord,
    Trajectory,
    first_pending,
    history_of,
    truncate_observation,
)
from .planner import (
    REPAIR_INSTRUCTION,
    finish_answer,
    load_exemplars,
    parse_action,
    parse_plan_response,
    parse_step_texts,
    parse_thought_action,
    planning_frame,
    render_history,
    render_skill_menu,
    strip_code_fences,
    update_global_plan,
)
from .records import check_types
from .sandbox import GRAMMAR_REFERENCE, SandboxLimits, eval_script
from .skills import (
    SkillContext,
    SkillDescriptor,
    SkillRegistry,
    SkillResult,
    default_registry,
    dispatch,
    observe_emission,
    register_skill,
    render_sandbox_outcome,
)

METHOD_GOALACT = "GoalAct"
METHOD_PLAN_AND_SOLVE = "PlanAndSolve"
METHOD_PLAN_AND_EXECUTE = "PlanAndExecute"
METHOD_REACT = "ReAct"
METHOD_CODEACT = "CodeAct"
METHODS = (METHOD_GOALACT, METHOD_PLAN_AND_SOLVE, METHOD_PLAN_AND_EXECUTE,
           METHOD_REACT, METHOD_CODEACT)

ABLATION_NO_GLOBAL_PLAN = "no_global_plan"
ABLATION_NO_SEARCHING = "no_searching"
ABLATION_NO_CODING = "no_coding"
ABLATION_NO_WRITING = "no_writing"
ABLATIONS = (ABLATION_NO_GLOBAL_PLAN, ABLATION_NO_SEARCHING,
             ABLATION_NO_CODING, ABLATION_NO_WRITING)

SUMMARY_MARKER = "Summarize the trajectory and give the final answer."
REACT_MARKER = "Respond with the next thought and action."
CODEACT_MARKER = "Computation turn:"
NO_PLAN_MARKER = "Propose only the single next step."
PE_PLAN_MARKER = "Plan the remaining sub-tasks as free text."
PE_SUBTASK_MARKER = "Subtask:"
PE_SUBTASK_KIND = "Subtask"


@dataclass(frozen=True)
class RunConfig:
    method: str = METHOD_GOALACT
    max_iterations: int = 10
    ablations: frozenset[str] = frozenset()
    exemplar_count: int = 2
    exemplars_file: Optional[str] = None
    max_plan_steps: int = 12
    sandbox_limits: SandboxLimits = SandboxLimits()
    observation_bytes: int = 4096
    writing_budget: int = 12000
    model: str = "scripted"
    custom_skills: tuple[tuple[str, str], ...] = ()  # (name, description)

    def __post_init__(self) -> None:
        check_types(self)
        if self.method not in METHODS:
            raise FatalError(f"unknown method {self.method!r}; "
                             f"expected one of {', '.join(METHODS)}")
        for name in ("max_iterations", "max_plan_steps", "observation_bytes",
                     "writing_budget"):
            if getattr(self, name) < 1:
                raise FatalError(f"{name} must be at least 1")
        unknown = set(self.ablations) - set(ABLATIONS)
        if unknown:
            raise FatalError(f"unknown ablation flags: {sorted(unknown)}")
        if self.ablations and self.method != METHOD_GOALACT:
            raise FatalError("ablation switches only apply to GoalAct")
        try:  # build both now, so that a bad setting fails here
            self.registry, self.exemplars
        except OSError as exc:
            raise FatalError(str(exc)) from exc

    # Built in __post_init__; not fields, so `config_hash` does not see them.
    @cached_property
    def registry(self) -> SkillRegistry:
        """The default skills plus the custom ones, less the ablated."""
        registry = default_registry()
        for name, description in self.custom_skills:
            registry = register_skill(registry, name, SkillDescriptor(
                name=name, description=description))
        for ablation, kind in ((ABLATION_NO_SEARCHING, SEARCHING),
                               (ABLATION_NO_CODING, CODING),
                               (ABLATION_NO_WRITING, WRITING)):
            if ablation in self.ablations:
                registry = registry.disable(kind)
        if len(registry.enabled_entries()) < 2:
            raise FatalError(
                "a run needs at least one enabled skill besides Finish")
        return registry

    @cached_property
    def exemplars(self) -> tuple[str, ...]:
        """The few-shot transcripts of the planning prompt."""
        return load_exemplars(self.exemplars_file or None, self.exemplar_count)

    def for_method(self, method: str) -> "RunConfig":
        """This config for one method of a suite: the ablations stay with
        GoalAct, and the exemplars this config read are shared, not read
        again.  The copy is checked as a new config is."""
        config = copy.copy(self)
        object.__setattr__(config, "method", method)
        object.__setattr__(config, "ablations", self.ablations
                           if method == METHOD_GOALACT else frozenset())
        del config.__dict__["registry"]
        config.__post_init__()
        return config


def normalize_method(name: str) -> str:
    key = re.sub(r"[-_\s]", "", name).lower()
    aliases = {
        "goalact": METHOD_GOALACT,
        "planandsolve": METHOD_PLAN_AND_SOLVE,
        "ps": METHOD_PLAN_AND_SOLVE,
        "planandexecute": METHOD_PLAN_AND_EXECUTE,
        "pe": METHOD_PLAN_AND_EXECUTE,
        "react": METHOD_REACT,
        "codeact": METHOD_CODEACT,
    }
    if key not in aliases:
        raise FatalError(f"unknown method name {name!r}")
    return aliases[key]


# --- recording wrappers ------------------------------------------------------------

class RecordingBackend:
    """The one place a run calls the model; logs each exchange as sent."""

    def __init__(self, inner: Any, trajectory: Trajectory, model: str):
        self.inner = inner
        self.trajectory = trajectory
        self.model = model

    def ask(self, purpose: str, prompt: str) -> str:
        """Send `prompt` as one user message; log and return the completion,
        or raise BackendUnavailable, unlogged, if UTF-8 cannot encode it."""
        request = user_request(prompt, model=self.model)
        response = self.inner.complete(request)
        if not response.isascii() and SURROGATE.search(response):
            raise BackendUnavailable("the completion holds a surrogate")
        self.trajectory.llm_calls.append(LlmExchange(
            purpose, request.model, BENCHMARK_TEMPERATURE,
            list(request.messages), response,
            getattr(response, "attempts", 1)))
        return response


@dataclass
class RecordingEnvironment:
    """Runs tool calls on `inner` and logs each into the trajectory: a
    successful call's result as the list of its rows' texts, as a
    filter_records observation shows it, and a failed call's error cut to
    the run's observation budget, since it may echo an argument of any
    length."""

    inner: ToolEnvironment
    trajectory: Trajectory
    observation_bytes: int

    def call(self, call: ToolCall) -> ToolResult:
        result = self.inner.call(call)
        self.trajectory.tool_calls.append(ToolCallRecord(
            tool=call.tool_name, arguments=dict(call.arguments),
            result=result.list_text if result.error is None
            else truncate_observation(result.error, self.observation_bytes),
            ok=result.error is None))
        return result


# --- shared pieces -------------------------------------------------------------------

def summarize(question: str, history_text: str, ask: Callable[[str], str],
              best_observation: str = "") -> tuple[str, bool]:
    """Terminal summarization; degrades to the best-known observation."""
    prompt = "\n".join([
        SUMMARY_MARKER,
        f"Question: {question}",
        "Trajectory:",
        history_text,
        "Final answer:",
    ])
    try:
        return ask(prompt), False
    except BackendUnavailable as exc:
        fallback = best_observation or "(no observations gathered)"
        return f"[degraded: {exc}] {fallback}", True


def _history_summary(history: History) -> tuple[str, str]:
    """(history text, last observation) of a skill history."""
    return render_history(history), history[-1].observation if history else ""


# --- policies ------------------------------------------------------------------------

@dataclass
class _Policy:
    """One run's task, config and recording wrappers, seen by its policy.

    Each policy has step(), which takes one step and returns True once the
    method has finished, and summary(), the (history text, best observation)
    pair to summarize from at any point.  A PlanningFailed or
    BackendUnavailable out of step() comes from the policy's own decision
    call, the one made for `purpose`.  A policy's `frame` holds the texts
    of its prompts around their transcript, built once per run; a policy
    that sends world prompts names their `intro`, `label` and `outro` lines.
    The base step is a transcript method's: one prompt over the transcript
    so far, its completion handed to take(); the plan policies override it.
    """

    task: Task
    config: RunConfig
    recorder: RecordingBackend
    env: RecordingEnvironment

    label = "Transcript:"

    @cached_property
    def frame(self) -> tuple[str, ...]:
        """The text of every world prompt before and after its transcript."""
        head = "\n".join([
            *self.intro,
            "Available tools:",
            TOOL_DESCRIPTIONS,
            "Data tables:",
            self.env.inner.render_table_schemas(),
            f"Question: {self.task.query}",
            self.label,
            "",
        ])
        return head, "".join("\n" + line for line in self.outro)

    def step(self) -> bool:
        return self.take(self.recorder.ask(
            self.purpose, self.summary()[0].join(self.frame)))

    def skill_context(self, purpose: str, history: History) -> SkillContext:
        """What `dispatch` hands an executor; its model calls are logged
        under `purpose`."""
        return SkillContext(
            question=self.task.query, history=history, env=self.env,
            ask=partial(self.recorder.ask, purpose),
            sandbox_limits=self.config.sandbox_limits,
            observation_bytes=self.config.observation_bytes,
            writing_budget=self.config.writing_budget)


# --- plan-based policies: GoalAct, Plan-and-Solve, Plan-and-Execute -------------------

@dataclass
class _PlanPolicy(_Policy):
    """Shared plan state: (re-)plan, then execute the first pending step.

    Each round is one `update_global_plan` call over the policy's `frame`,
    its `parse` of a reply and its `repair` retry text, failing as `what`.
    """

    purpose = "planning"
    replans = True  # re-plan every round; False plans once, up front
    plan: Optional[GlobalPlan] = None

    def step(self) -> bool:
        if self.replans or self.plan is None:
            self.plan = update_global_plan(
                self.plan, partial(self.recorder.ask, self.purpose),
                self.frame, self.parse, self.config.max_plan_steps,
                self.repair, self.what)
            self.recorder.trajectory.revisions.append(self.plan)
        step = first_pending(self.plan)
        if step is None or step.action.kind == FINISH:
            return True
        observation, payload = self.execute_step(step)
        steps = tuple(s.mark_executed(observation, payload)
                      if s.index == step.index else s for s in self.plan.steps)
        self.plan = GlobalPlan(steps=steps, revision=self.plan.revision)
        return False

    def summary(self) -> tuple[str, str]:
        return _history_summary(history_of(self.plan))


class _GoalActPolicy(_PlanPolicy):
    """Re-plan the global plan, then dispatch one step through the skills."""

    repair = "\n\n" + REPAIR_INSTRUCTION
    what = "plan"

    @cached_property
    def frame(self) -> tuple[str, ...]:
        """The planning template filled but for its history."""
        return planning_frame(self.task.query, self.env.inner,
                              self.config.exemplars, self.config.registry)

    def parse(self, raw: str) -> list[tuple[str, SkillAction]]:
        return parse_plan_response(raw, self.config.registry.kinds())

    def execute_step(self, step: PlanStep) -> SkillResult:
        return dispatch(step.action, self.skill_context(
            f"skill:{step.action.kind}", history_of(self.plan)),
            self.config.registry)


class _PlanAndSolvePolicy(_GoalActPolicy):
    """One plan up front, every step in order with no adaptation."""

    replans = False


def _free_action(text: str) -> SkillAction:
    answer = finish_answer(text)
    if answer is not None:
        return SkillAction(kind=FINISH, objective=answer)
    return SkillAction(kind=PE_SUBTASK_KIND, objective=text.strip())


def _exec_subtask(action: SkillAction, context: SkillContext) -> SkillResult:
    """One free-text sub-task mapped to one tool call."""
    prompt = "\n".join([
        "Map the sub-task below to exactly one tool call. Respond with a "
        "single JSON object {\"tool\": \"<name>\", \"args\": {...}}.",
        "Available tools:",
        TOOL_DESCRIPTIONS,
        f"Question: {context.question}",
        f"{PE_SUBTASK_MARKER} {action.objective}",
    ])
    return observe_emission(context.ask(prompt), context.env, "Sub-task")


_SUBTASK_SKILLS = SkillRegistry(entries=(SkillDescriptor(
    name=PE_SUBTASK_KIND, description="One free-text sub-task.",
    run=_exec_subtask),))


class _PlanAndExecutePolicy(_PlanPolicy):
    """Re-planned free-text sub-tasks, each dispatched to `_exec_subtask`."""

    intro = ("You direct an agent that can run exactly one retrieval tool call "
             "per sub-task. Describe each remaining sub-task in plain language.",)
    label = "Executed so far:"
    outro = (PE_PLAN_MARKER,
             'Respond with a JSON array of {"Thinking": "...", "Action": "..."} '
             'objects; the final Action must be "Finish".')
    repair = ("\n\nYour previous reply could not be used. Output a valid "
              "structured array only.")
    what = "sub-task plan"

    @staticmethod
    def parse(raw: str) -> list[tuple[str, SkillAction]]:
        return [(thought, _free_action(text))
                for thought, text in parse_step_texts(raw)]

    def execute_step(self, step: PlanStep) -> SkillResult:
        return dispatch(step.action, self.skill_context(
            "subtask", history_of(self.plan)), _SUBTASK_SKILLS)


# --- transcript-based policies: ReAct, CodeAct, GoalAct without a plan --------------
# No plan: each takes the base step, one prompt over its transcript so far.

@dataclass
class _LinePolicy(_Policy):
    """ReAct and CodeAct keep their transcript as Thought/Action/Observation
    lines."""

    lines: list[str] = field(default_factory=list)
    last_observation: str = ""

    def observe(self, observation: str) -> None:
        """Log an observation, cut to the run's observation budget."""
        self.last_observation = truncate_observation(
            observation, self.config.observation_bytes)
        self.lines.append(f"Observation: {self.last_observation}")

    def summary(self) -> tuple[str, str]:
        return "\n".join(self.lines), self.last_observation


class _ReActPolicy(_LinePolicy):
    """Incremental thought-action-observation with no global plan."""

    purpose = "react_step"
    intro = ("You solve the task through alternating thought, action, and "
             "observation steps.",
             "Each action is exactly one tool call written as "
             "tool_name[key=value, ...], or Finish[answer] once the "
             "observations already answer the question.")
    outro = (REACT_MARKER,
             'Respond with a JSON object {"Thought": "...", "Action": "..."}.')

    def take(self, emission: str) -> bool:
        parsed = parse_thought_action(emission)
        if parsed is None:
            self.lines.append("Observation: the previous response could not "
                              "be parsed; answer with the JSON object format.")
            return False
        thought, action_text = parsed
        for line in (f"Thought: {thought}", f"Action: {action_text}"):
            self.lines.append(truncate_observation(
                line, self.config.observation_bytes))
        if finish_answer(action_text) is not None:
            return True
        self.observe(observe_emission(action_text, self.env, "Action")[0])
        return False


class _CodeActPolicy(_LinePolicy):
    """One whole sandbox script per iteration; the script is the action."""

    purpose = "codeact_step"
    intro = ("You solve the task by writing one script per turn in the "
             "sandbox language below, or Finish[answer] once done.",
             GRAMMAR_REFERENCE)
    outro = (CODEACT_MARKER,)

    def take(self, emission: str) -> bool:
        body = strip_code_fences(emission)
        if finish_answer(body) is not None:
            self.lines.append(f"Action: {body.strip()}")
            return True
        result = eval_script(body, self.env, self.config.sandbox_limits)
        self.lines.append("Action: script")
        self.observe(render_sandbox_outcome(result))
        return False


@dataclass
class _NextStepPolicy(_Policy):
    """The w/o-global-plan ablation: single-step queries, same skills.

    Its transcript is the history of the steps it executed.
    """

    purpose = "next_step"
    label = "Steps so far:"
    outro = (NO_PLAN_MARKER,
             'Respond with a JSON array holding one {"Thinking": "...", '
             '"Action": "Kind[objective]"} object.')
    executed: History = ()

    def __post_init__(self) -> None:
        self.intro = ("You act step by step with the skills below; no plan is "
                      "kept.",
                      "Skills:\n" + render_skill_menu(self.config.registry)[1])

    def summary(self) -> tuple[str, str]:
        return _history_summary(self.executed)

    def take(self, emission: str) -> bool:
        try:
            thought, text = parse_step_texts(emission)[0]
            action = parse_action(text, self.config.registry.kinds())
        except PlanError:
            thought = "(unparseable step)"
            action = SkillAction(kind=SEARCHING, objective="none")
            result: SkillResult = (
                "The step could not be parsed; try again.", None)
        else:
            if action.kind == FINISH:
                return True
            result = dispatch(action, self.skill_context(
                f"skill:{action.kind}", self.executed), self.config.registry)
        step = PlanStep(len(self.executed) + 1, thought, action)
        self.executed += (step.mark_executed(*result),)
        return False


# --- the run loop ----------------------------------------------------------------------

_POLICIES = {
    METHOD_GOALACT: _GoalActPolicy,
    METHOD_PLAN_AND_SOLVE: _PlanAndSolvePolicy,
    METHOD_PLAN_AND_EXECUTE: _PlanAndExecutePolicy,
    METHOD_REACT: _ReActPolicy,
    METHOD_CODEACT: _CodeActPolicy,
}


def run_task(task: Task, env: ToolEnvironment, config: RunConfig,
             backend: Any) -> Trajectory:
    """Run one task: the method's policy takes each step, up to the cap."""
    traj = Trajectory(task_id=task.id, method=config.method)
    policy_class = _NextStepPolicy \
        if ABLATION_NO_GLOBAL_PLAN in config.ablations \
        else _POLICIES[config.method]
    policy = policy_class(task, config,
                          RecordingBackend(backend, traj, config.model),
                          RecordingEnvironment(env, traj,
                                               config.observation_bytes))
    try:
        reason, failure = TERMINATION_MAX_ITERATIONS, ""
        for t in range(1, config.max_iterations + 1):
            traj.step_count = t
            try:
                if policy.step():
                    reason = TERMINATION_FINISH
                    break
            except (PlanningFailed, BackendUnavailable) as exc:
                reason = TERMINATION_FATAL
                failure = f"{policy.purpose} failed: {exc}"
                break
        history_text, best_observation = policy.summary()
        traj.final_answer, traj.degraded = summarize(
            task.query, history_text, partial(policy.recorder.ask, "summarize"),
            best_observation=failure or best_observation)
        traj.termination_reason = reason
        return traj
    except (AuthFailure, RuleMiss, CassetteMiss) as exc:
        traj.termination_reason = TERMINATION_FATAL
        traj.final_answer = None
        exc.trajectory = traj  # let the caller persist the partial record
        raise
