"""Global-plan maintenance, and the one reader of what a model writes.

Every planning round of every plan method is one `update_global_plan`
call: it renders the plan's executed steps, the history, into the run's
prompt frame, asks the model for the *continuation* of the plan, and splices
the parsed pending steps onto that immutable executed prefix.  The methods
differ only in their frame, their reply parser and whether they re-plan.
GoalAct's frame is the planning template with its other slots filled once
per run by `planning_frame`: the question, tool and table descriptions from
the run's task, and the few-shot exemplars (`load_exemplars`) and skill menu
that its run config builds once.

Every completion a run acts on is read here: plan arrays, `Kind[objective]`
actions, ReAct thought/action objects, `Finish[answer]` turns, tool-call
emissions and fenced scripts.  Each reader returns a fault as data or
raises PlanError.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable, Optional, Sequence

from .backends import decode_json
from .environment import TOOL_DESCRIPTIONS, ToolCall, ToolEnvironment
from .errors import FatalError, GoalActError, PlanError, PlanningFailed
from .plan import (
    BUILTIN_KINDS,
    FINISH,
    GlobalPlan,
    History,
    PlanStep,
    SkillAction,
    history_of,
    validate_plan,
)
from .records import read_lines, record_from_dict

PROMPT_VERSION = 1

# Section header the template places above the rendered history; scripted
# fixtures key on it to recognize planning prompts.
PLANNING_MARKER = "Existing planning chain:"

REPAIR_INSTRUCTION = (
    "Your previous reply could not be used. Output a valid structured array "
    "only: a JSON array of objects, each with exactly the keys \"Thinking\" "
    "and \"Action\"."
)

_NUMBER_WORDS = ["zero", "one", "two", "three", "four", "five", "six",
                 "seven", "eight", "nine", "ten", "eleven", "twelve"]

_SLOTS = ("question", "table_used_prompt", "tool_prompt", "memory",
          "scratchpad", "skill_count", "skill_menu")

# The one `Name[body]` form: plan actions, ReAct tool calls, Finish turns.
_CALL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[(.*)\])?\s*$",
                      re.DOTALL)

# What a JSON value can start with, after JSON whitespace: the decoder
# refuses any other text.
_JSON_START = re.compile(
    r'[ \t\n\r]*(?:[{\["\-0-9]|true|false|null|NaN|Infinity)')

_CODE_FENCE = re.compile(r"^```[a-zA-Z0-9_-]*\n(.*)\n?```$", re.DOTALL)


def count_word(n: int) -> str:
    return _NUMBER_WORDS[n] if 0 <= n < len(_NUMBER_WORDS) else str(n)


@functools.cache
def load_template() -> str:
    """The packaged planning template, read once per process."""
    return resources.files("goalact.prompts").joinpath(
        "global_planning.txt").read_text(encoding="utf-8")


@functools.cache
def _template_parts() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The template's literal texts, and the slot between each pair."""
    parts = re.split(r"\{(%s)\}" % "|".join(_SLOTS), load_template())
    texts, slots = tuple(parts[0::2]), tuple(parts[1::2])
    for slot in _SLOTS:
        if slot not in slots:
            raise GoalActError(f"template lost its {{{slot}}} marker")
    return texts, slots


@dataclass(frozen=True)
class _Exemplar:
    id: str  # may be absent
    transcript: str


def _transcripts(path: Any) -> tuple[str, ...]:
    return tuple(exemplar.transcript for exemplar in read_lines(
        path, lambda doc: record_from_dict(_Exemplar, {"id": "", **doc})))


@functools.cache
def _packaged_exemplars() -> tuple[str, ...]:
    return _transcripts(resources.files("goalact.prompts").joinpath(
        "exemplars.jsonl"))


def load_exemplars(path: Optional[Any], count: int) -> tuple[str, ...]:
    """The first `count` transcripts of the line-delimited exemplar log at
    `path`, each line an object of a `transcript` and an optional `id`, or
    of the packaged exemplars (parsed once per process) when `path` is None."""
    transcripts = _packaged_exemplars() if path is None \
        else _transcripts(path)
    if not 0 <= count <= len(transcripts):
        raise FatalError(f"{count} exemplars requested but "
                         f"{path or 'the package'} holds {len(transcripts)}")
    return tuple(transcripts[:count])


def render_history(history: History) -> str:
    """The {scratchpad} slot: Thought/Action/Observation lines, oldest first."""
    return "\n".join(f"Thought: {step.thought}\n"
                     f"Action: {step.action.render()}\n"
                     f"Observation: {step.observation}" for step in history)


def render_skill_menu(registry: Any) -> tuple[int, str]:
    """Numbered action-type list from the enabled registry entries."""
    entries = registry.enabled_entries()
    lines = [f"{i}. {name}: {description}"
             for i, (name, description) in enumerate(entries, start=1)]
    return len(entries), "\n".join(lines)


def planning_frame(question: str, env: ToolEnvironment,
                   exemplars: Sequence[str], registry: Any) -> tuple[str, ...]:
    """The template with every slot but {scratchpad} filled: the texts
    between its {scratchpad} slots, for a round to join with its rendered
    history.  Values are inserted verbatim, so a slot marker inside a value
    is never filled."""
    skill_count, skill_menu = render_skill_menu(registry)
    values = {
        "question": question,
        "table_used_prompt": env.render_table_schemas(),
        "tool_prompt": TOOL_DESCRIPTIONS,
        "memory": "\n\n".join(exemplars),
        "skill_count": count_word(skill_count),
        "skill_menu": skill_menu,
    }
    texts, slots = _template_parts()
    pieces, piece = [], [texts[0]]
    for slot, text in zip(slots, texts[1:]):
        if slot == "scratchpad":
            pieces.append("".join(piece))
            piece = []
        else:
            piece.append(values[slot])
        piece.append(text)
    pieces.append("".join(piece))
    return tuple(pieces)


def build_planning_prompt(question: str, env: ToolEnvironment,
                          history: History, exemplars: Sequence[str],
                          registry: Any) -> str:
    """The whole planning prompt of one round: `planning_frame` joined with
    the rendered `history`."""
    return render_history(history).join(
        planning_frame(question, env, exemplars, registry))


def parse_action(text: str, kinds: Sequence[str]) -> SkillAction:
    """Split 'Kind[objective]' into a SkillAction; kind match is case-insensitive."""
    return _read_action(text, {kind.lower(): kind for kind in kinds})


def _read_action(text: str, canonical: dict[str, str]) -> SkillAction:
    """`parse_action` against a built lower-case kind table."""
    match = _CALL_RE.match(text)
    if not match:
        raise PlanError(f"unparseable action string: {text!r}")
    word, objective = match.group(1), match.group(2) or ""
    kind = canonical.get(word.lower())
    if kind is None:
        raise PlanError(f"action kind {word!r} is not a registered skill")
    if kind != FINISH and not objective.strip():
        raise PlanError(
            f"{kind} action is missing its bracketed objective: {text!r}")
    return SkillAction(kind=kind, objective=objective.strip())


def finish_answer(text: str) -> Optional[str]:
    """The stripped answer of a `Finish[answer]` or bare `Finish` text, the
    name in any letter case; None for any other text."""
    # Most texts are no Finish: a prefix test spares them the match.
    if text.lstrip()[:6].lower() != "finish":
        return None
    match = _CALL_RE.match(text)
    if match is None or match.group(1).lower() != "finish":
        return None
    return (match.group(2) or "").strip()


def strip_code_fences(text: str) -> str:
    """Remove a single wrapping ``` fence (with optional language tag)."""
    stripped = text.strip()
    match = _CODE_FENCE.match(stripped)
    if match:
        return match.group(1).strip()
    return stripped


def _locate_json(raw: str, brackets: str, what: str) -> Any:
    """A completion's JSON document: the text in an optional code fence, or
    else its span from the first `brackets[0]` to the last `brackets[1]`.
    Raises PlanError naming `what` when neither parses."""
    text = strip_code_fences(raw)
    try:
        return decode_json(text)
    except json.JSONDecodeError:
        start, end = text.find(brackets[0]), text.rfind(brackets[1])
        if start < 0 or end <= start:
            raise PlanError(f"completion holds no parseable {what}")
        try:
            return decode_json(text[start:end + 1])
        except json.JSONDecodeError as exc:
            raise PlanError(f"{what} does not parse: {exc}") from exc


def parse_step_texts(raw: str) -> list[tuple[str, str]]:
    """Parse a completion's JSON array into raw (thinking, action-text)
    pairs; each element must carry exactly the Thinking and Action keys."""
    doc = _locate_json(raw, "[]", "array")
    if not isinstance(doc, list):
        raise PlanError(f"expected an array, got {type(doc).__name__}")
    if not doc:
        raise PlanError("the parsed plan has no steps")
    pairs = []
    for i, item in enumerate(doc, start=1):
        if not isinstance(item, dict):
            raise PlanError(f"step {i} is not an object")
        if set(item.keys()) != {"Thinking", "Action"}:
            raise PlanError(
                f"step {i} must have exactly the keys Thinking and Action, "
                f"got {sorted(item.keys())}")
        pairs.append((str(item["Thinking"]), str(item["Action"])))
    return pairs


def parse_plan_response(raw: str, kinds: Sequence[str] = BUILTIN_KINDS
                        ) -> list[tuple[str, SkillAction]]:
    """Parse a planner completion into (thought, SkillAction) pairs."""
    canonical = {kind.lower(): kind for kind in kinds}
    return [(thought, _read_action(text, canonical))
            for thought, text in parse_step_texts(raw)]


def parse_thought_action(raw: str) -> Optional[tuple[str, str]]:
    """A ReAct reply's (thought, action text), from its JSON object (or the
    first object of an array) holding `Thought` (else `Thinking`) and
    `Action`; None when the reply holds no such object."""
    try:
        doc = _locate_json(raw, "{}", "object")
    except PlanError:
        return None
    if isinstance(doc, list) and doc:
        doc = doc[0]
    if not isinstance(doc, dict):
        return None
    thought = doc.get("Thought", doc.get("Thinking"))
    action = doc.get("Action")
    return None if thought is None or action is None \
        else (str(thought), str(action))


def _decoded(text: str) -> Any:
    """The JSON value of `text`, or None when it does not parse.  A text
    that cannot begin a JSON value, such as a `Tool[...]` call, is not
    decoded."""
    if _JSON_START.match(text) is None:
        return None
    try:
        return decode_json(text)
    except json.JSONDecodeError:
        return None


def _call_from_obj(obj: Any) -> Optional[ToolCall]:
    if isinstance(obj, dict) and "tool" in obj:
        args = obj.get("args", {})
        if isinstance(args, dict):
            return ToolCall(tool_name=str(obj["tool"]),
                            arguments={str(k): v for k, v in args.items()})
    return None


def _parse_react_call(line: str) -> Optional[ToolCall]:
    match = _CALL_RE.match(line)
    if match is None or match.group(2) is None:  # a call has a [body]
        return None
    name, arg_body = match.groups()
    arguments: dict[str, Any] = {}
    if arg_body.strip():
        for piece in arg_body.split(","):
            if "=" not in piece:
                return None
            key, value = piece.split("=", 1)
            arguments[key.strip()] = value.strip().strip("\"'")
    return ToolCall(tool_name=name, arguments=arguments)


def parse_tool_emission(text: str) -> tuple[list[ToolCall], Optional[str]]:
    """Extract tool calls from a backend emission.

    Accepts the canonical {"tool": name, "args": {...}} object, an array of
    such objects, one object per line, or the ReAct-style Tool[k=v, ...]
    form.  Returns (calls, problem); problem explains a parse failure.
    """
    body = strip_code_fences(text)
    doc = _decoded(body)
    if isinstance(doc, list):
        found = list(map(_call_from_obj, doc))
        problem = "array held no {\"tool\": ...} objects"
    elif doc is not None:
        found, problem = [_call_from_obj(doc)], "object lacks a \"tool\" key"
    else:  # a call per line of several lines, else the body as one Tool[...]
        lines = body.splitlines()  # one line is the body, which did not decode
        found = [_call_from_obj(_decoded(line)) or _parse_react_call(line)
                 for line in map(str.strip, lines) if line] \
            if len(lines) > 1 else []
        if not any(found):
            found = [_parse_react_call(body)]
        problem = "no tool call found in the emission"
    calls = list(filter(None, found))
    return (calls, None) if calls else ([], problem)


def splice_pending(executed: tuple[PlanStep, ...],
                   parsed: Sequence[tuple[str, SkillAction]], revision: int,
                   max_steps: Optional[int] = None) -> GlobalPlan:
    """Executed prefix (verbatim) plus freshly numbered pending steps."""
    pending = tuple(
        PlanStep(index=len(executed) + i, thought=thought, action=action)
        for i, (thought, action) in enumerate(parsed, start=1)
    )
    return validate_plan(GlobalPlan(steps=executed + pending,
                                    revision=revision), max_steps=max_steps)


def update_global_plan(plan_prev: Optional[GlobalPlan],
                       ask: Callable[[str], str], frame: Sequence[str],
                       parse: Callable[[str], Sequence[tuple[str, SkillAction]]],
                       max_plan_steps: int, repair: str, what: str
                       ) -> GlobalPlan:
    """One planning round: executed prefix preserved, pending suffix rewritten.

    `frame` holds the texts of the run's planning prompt around its history,
    built once per run; a round joins it with the rendered executed steps of
    `plan_prev`.  The model is asked once, plus, when `parse` or the plan's
    validation rejects the reply, a single retry with `repair` appended, its
    prompt built only then.  Raises PlanningFailed naming `what` when both
    replies are unusable; backend errors propagate.
    """
    executed = history_of(plan_prev)
    revision = plan_prev.revision + 1 if plan_prev else 1
    prompt = render_history(executed).join(frame)
    failure: Exception | None = None
    for repairing in (False, True):
        raw = ask(prompt + repair if repairing else prompt)
        try:
            return splice_pending(executed, parse(raw), revision,
                                  max_steps=max_plan_steps)
        except PlanError as exc:
            failure = exc
    raise PlanningFailed(f"no valid {what} after repair retry: {failure}")
