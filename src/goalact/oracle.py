"""Scripted oracle backends: rule sets that solve generated tasks perfectly.

Each task kind has a solver that turns the generator's construction recipe
into one `Solution` record: the skill rules (tool emissions per objective,
sandbox scripts, documents), the summary texts, and, for every method, the
response it must read in each round together with the value that first
appears in that round's prompt.  Every tool call a solution names is one
`Lookup`, which spells each of its forms; ReAct and Plan-and-Execute make
the same calls, one a round.  Solvers write only the skill rules, as one
build per skill marker, and know no method's marker or rule names.  One
assembler, `_assemble`, turns a record into ten per-marker rule families:
it alone knows the method markers, the rule-naming scheme and the family
order, and one helper, `_rounds`, writes every method's round family.  Rules
key on a prompt-type marker plus the round's first new value, most specific
round first, so one rule set serves every method deterministically.

`build_oracle_rules` solves the task and renders no rule: each family,
skill families included, is a closure that renders its rules (and a
lookup's emission JSON) when first called, so a backend built from the
families renders only the prompt types a run sends (a CodeAct run never
renders a plan, and only GoalAct, its ablations and Plan-and-Solve, which
run skills, render skill rules).  Every rule holds its family's marker in
one of its substrings; `ScriptedBackend` checks this when it builds a
family and refuses a rule that does not.

The summary rules come in two tiers: a success rule keyed on content that
only a completed run leaves in the history, and a fallback for runs that got
cut short.  That is what gives the ablation fixtures their exact score
separations.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple, Optional

from .backends import Rule, RuleFamily, ScriptedBackend
from .generator import Task
from .orchestrator import (
    CODEACT_MARKER,
    NO_PLAN_MARKER,
    PE_PLAN_MARKER,
    PE_SUBTASK_MARKER,
    REACT_MARKER,
    SUMMARY_MARKER,
)
from .plan import CODING, FINISH, SEARCHING, WRITING, SkillAction
from .planner import PLANNING_MARKER, render_plan_steps, render_step_array
from .skills import CODING_MARKER, SEARCHING_MARKER, WRITING_MARKER

DISABLED_TEXT = "currently disabled"

Keys = list[Optional[str]]


class Lookup(NamedTuple):
    """One tool call in each form a prompt asks for it or an answer makes it:
    the Searching `objective`, the Plan-and-Execute `subtask`, the
    `{"tool", "args"}` `emission`, the ReAct `action` and the sandbox
    `script` expression."""
    tool: str
    table: str
    field: str
    value: str

    def _asking(self, get_verb: str, filter_verb: str) -> str:
        verb, rows = (get_verb, "record") if self.tool == "get_record" \
            else (filter_verb, "records")
        return (f'{verb} the {self.table} {rows} whose {self.field} '
                f'is "{self.value}"')

    objective = property(lambda self: self._asking("look up", "filter"))
    subtask = property(lambda self: self._asking("Fetch", "Filter"))
    emission = property(lambda self: json.dumps({"tool": self.tool, "args": {
        "table": self.table, "field": self.field, "value": self.value}}))
    action = property(lambda self: f"{self.tool}[table={self.table}, "
                                   f"field={self.field}, value={self.value}]")
    script = property(lambda self: f'{self.tool}("{self.table}", '
                                   f'"{self.field}", "{self.value}")')


class Solution(NamedTuple):
    """What one task answers to every prompt; only skill rules carry markers,
    and they come as one build per skill marker, run when first needed.

    A `*_keys` list holds, per round, the value that first appears in that
    round's prompt (None for round 1).  ReAct and Plan-and-Execute make the
    same call in each round, one per entry of `calls`, and then finish;
    `call_keys` holds both methods' keys.
    """
    skill_builds: dict[str, Callable[[], list[Rule]]]  # by skill marker
    summary: tuple[str, str, str]  # (success key, success text, fallback)
    steps: list[tuple[str, SkillAction]]  # round t executes steps[t-1]
    round_keys: Keys  # one per step
    # (ReAct thought, Plan-and-Execute thinking, its sub-task, the call)
    calls: list[tuple[str, str, str, Lookup]]
    finish: tuple[str, str, str]  # (ReAct thought, ReAct action, thinking)
    call_keys: Keys  # one per call, then the finishing round's
    codeact_scripts: list[str]
    codeact_keys: Keys


def _react_json(thought: str, action: str) -> str:
    return json.dumps({"Thought": thought, "Action": action})


def _searching_rules(lookups: list[Lookup], prefix: str) -> list[Rule]:
    """The Searching skill: each lookup's objective answered by its emission."""
    return [Rule.on_substrings(lookup.emission,
                               f"{SEARCHING_MARKER} {lookup.objective}",
                               name=f"{prefix}-search{i}")
            for i, lookup in enumerate(lookups, start=1)]


# --- assembly ---------------------------------------------------------------------------

def _rounds(marker: str, render: Callable[[], list[str]], round_keys: Keys,
            prefix: str, disabled: bool = False) -> RuleFamily:
    """A family of one rule per round, last round first, rendered on first
    use: round t answers render()[t-1] and keys on round_keys[t-1]; the
    opening round keys on the marker only.  With `disabled`, a first rule
    answers a "currently disabled" prompt with the last response."""
    def build() -> list[Rule]:
        responses = render()
        rules = [Rule.on_substrings(responses[-1], marker, DISABLED_TEXT,
                                    name=f"{prefix}-disabled")
                 ] if disabled else []
        rules += [Rule.on_substrings(responses[t - 1], marker,
                                     round_keys[t - 1], name=f"{prefix}-round{t}")
                  for t in range(len(round_keys), 1, -1)]
        rules.append(Rule.on_substrings(responses[0], marker,
                                        name=f"{prefix}-round1"))
        return rules
    return marker, build


def _assemble(s: Solution, prefix: str) -> list[RuleFamily]:
    """Every method's rule families for one solved task, in matching order.

    Each family is a prompt-type marker and a closure that builds only the
    rules keyed on it; every one of those rules holds the marker in one of
    its substrings, which is what lets a backend match a prompt within the
    family of the one marker it holds.
    """
    success_key, success_text, fallback_text = s.summary

    def skill(marker: str) -> RuleFamily:
        return marker, s.skill_builds.get(marker, list)

    def summary() -> list[Rule]:
        return [Rule.on_substrings(success_text, SUMMARY_MARKER, success_key,
                                   name=f"{prefix}-summary-success"),
                Rule.on_substrings(fallback_text, SUMMARY_MARKER,
                                   name=f"{prefix}-summary-fallback")]

    def react_turns() -> list[str]:
        turns = [(thought, lookup.action) for thought, _, _, lookup in s.calls]
        return [_react_json(*turn) for turn in turns + [s.finish[:2]]]

    def pe_plans() -> list[str]:
        steps = [(thinking, subtask) for _, thinking, subtask, _ in s.calls]
        steps.append((s.finish[2], "Finish"))
        return [render_step_array(steps[t:]) for t in range(len(steps))]

    def pe_subtasks() -> list[Rule]:
        return [Rule.on_substrings(lookup.emission,
                                   f"{PE_SUBTASK_MARKER} {subtask}",
                                   name=f"{prefix}-pe-sub{i}")
                for i, (_, _, subtask, lookup) in enumerate(s.calls, start=1)]

    # The plan continuation at round t is the step suffix with t-1 steps
    # executed; the plan-less ablation answers with just step t.
    return [
        skill(SEARCHING_MARKER), skill(WRITING_MARKER), skill(CODING_MARKER),
        (SUMMARY_MARKER, summary),
        _rounds(PLANNING_MARKER, lambda: [render_plan_steps(s.steps[t:])
                                          for t in range(len(s.steps))],
                s.round_keys, f"{prefix}-plan", disabled=True),
        _rounds(NO_PLAN_MARKER,
                lambda: [render_plan_steps([step]) for step in s.steps],
                s.round_keys, f"{prefix}-single", disabled=True),
        _rounds(REACT_MARKER, react_turns, s.call_keys, f"{prefix}-react"),
        _rounds(CODEACT_MARKER, lambda: s.codeact_scripts, s.codeact_keys,
                f"{prefix}-codeact"),
        _rounds(PE_PLAN_MARKER, pe_plans, s.call_keys, f"{prefix}-pe"),
        (PE_SUBTASK_MARKER, pe_subtasks),
    ]


# --- k-hop lookup tasks -------------------------------------------------------------

def _khop_solution(task: Task) -> Solution:
    hops = task.recipe["hops"]
    answer = task.recipe["answer"]
    answer_field = task.recipe["answer_field"]
    k = len(hops)

    lookups = [Lookup("get_record", h["table"], h["lookup_field"],
                      h["lookup_value"]) for h in hops]
    steps = [(f"Hop {i}: resolve the {lookup.table} record.",
              SkillAction(kind=SEARCHING, objective=lookup.objective))
             for i, lookup in enumerate(lookups, start=1)]
    steps.append(("Every hop is resolved; finish.", SkillAction(kind=FINISH)))

    # Round t first sees hop t's key (t >= 2); the last round sees the answer.
    round_keys: Keys = [None]
    round_keys += [lookup.value for lookup in lookups[1:]]
    round_keys.append(answer)

    chain_lines = []
    for i, h in enumerate(hops, start=1):
        source = f'"{h["lookup_value"]}"' if i == 1 \
            else f"r{i - 1}.{h['lookup_field']}"
        chain_lines.append(
            f'r{i} = get_record("{h["table"]}", "{h["lookup_field"]}", {source})')
    chain_lines.append(f"return r{k}.{answer_field}")

    return Solution(
        skill_builds={
            SEARCHING_MARKER: lambda: _searching_rules(lookups, "khop")},
        summary=(answer, f"The {answer_field} of the final record is {answer}.",
                 "The requested value could not be determined."),
        steps=steps, round_keys=round_keys,
        calls=[(f"Hop {i}: fetch the {lookup.table} record.",
                f"Sub-task {i}: one lookup.", lookup.subtask, lookup)
               for i, lookup in enumerate(lookups, start=1)],
        finish=("The final record is in hand.",
                f"Finish[The {answer_field} is {answer}]",
                "All sub-tasks done."),
        call_keys=round_keys,
        codeact_scripts=["\n".join(chain_lines),
                         "Finish[the chain is resolved]"],
        codeact_keys=[None, answer])


# --- writing tasks ------------------------------------------------------------------

def _writing_solution(task: Task) -> Solution:
    r = task.recipe
    plaintiff_id = task.gold_path[0][1]
    doc_marker = r["doc_marker"]

    lookups = [Lookup("get_record", "parties", "legal_name", r["plaintiff_name"]),
               Lookup("get_record", "parties", "legal_name", r["defendant_name"]),
               Lookup("get_record", "lawyers", "lawyer_id", r["counsel_id"]),
               Lookup("filter_records", "statutes", "topic", r["topic"])]
    obj_write = ("compose the defense brief citing the gathered parties, "
                 "counsel, and statutes")

    document = (
        f"{doc_marker}\n"
        f"On behalf of the defendant {r['defendant_name']} (registration "
        f"{r['registration_code']}), counsel {r['counsel_name']} (bar number "
        f"{r['bar_number']}) answers the complaint brought by the plaintiff "
        f"{r['plaintiff_name']}. The defense invokes "
        f"{r['statute_ids'][0]} and {r['statute_ids'][1]}, both governing "
        f"{r['topic']}, and requests dismissal of every claim."
    )

    thoughts = ["Gather the plaintiff's registered details.",
                "Gather the defendant's registered details.",
                "Identify the defendant's counsel.",
                "Collect the statutes on the disputed topic."]
    steps = [(thought, SkillAction(SEARCHING, lookup.objective))
             for thought, lookup in zip(thoughts, lookups)]
    steps += [("Compose the defense brief from the gathered material.",
               SkillAction(WRITING, obj_write)),
              ("The brief is complete; finish.", SkillAction(kind=FINISH))]
    round_keys: Keys = [None, plaintiff_id, r["registration_code"],
                        r["bar_number"], r["statute_ids"][0], doc_marker]

    skill_builds = {
        SEARCHING_MARKER: lambda: _searching_rules(lookups, "writing"),
        WRITING_MARKER: lambda: [Rule.on_substrings(
            document, f"{WRITING_MARKER} {obj_write}", name="writing-compose")],
    }

    react_thoughts = ["Start with the plaintiff's record.",
                      "Now the defendant's record.",
                      "Find the defendant's counsel.",
                      "Collect the statutes for the topic."]

    codeact_script = "\n".join([
        f"d = {lookups[1].script}",
        'l = get_record("lawyers", "lawyer_id", d.counsel_id)',
        "return [d, l]",
    ])

    return Solution(
        skill_builds=skill_builds,
        summary=(doc_marker, document,
                 "A complete defense brief could not be produced. Parties "
                 f"involved: {r['plaintiff_name']} versus "
                 f"{r['defendant_name']}."),
        steps=steps, round_keys=round_keys,
        calls=[(thought, f"Sub-task {i}.", lookup.subtask, lookup)
               for i, (thought, lookup)
               in enumerate(zip(react_thoughts, lookups), start=1)],
        finish=("The facts are gathered.", "Finish[facts gathered]",
                "All facts fetched."),
        call_keys=round_keys[:5],
        codeact_scripts=[codeact_script, "Finish[facts gathered]"],
        codeact_keys=[None, r["bar_number"]])


# --- aggregation tasks ----------------------------------------------------------------

def _aggregation_solution(task: Task) -> Solution:
    r = task.recipe
    table, field_name = r["table"], r["filter_field"]
    value, sum_field = r["filter_value"], r["sum_field"]
    rendered_total = r["rendered_total"]
    result_key = f"Result: {rendered_total}"
    first_gold_id = task.gold_path[0][1]

    lookup = Lookup("filter_records", table, field_name, value)
    obj_code = (f"filter {table} by {field_name} {value} and sum the "
                f"{sum_field} field")
    script = "\n".join([
        f"rows = {lookup.script}",
        "total = 0",
        "for r in rows { total = total + r.%s }" % sum_field,
        "return total",
    ])

    return Solution(
        skill_builds={CODING_MARKER: lambda: [Rule.on_substrings(
            script, f"{CODING_MARKER} {obj_code}", name="agg-script")]},
        summary=(result_key, f"The total amount is {rendered_total}.",
                 "The total could not be computed within the available "
                 "budget."),
        steps=[("Too many rows to fetch one by one; compute the total with a "
                "script.", SkillAction(CODING, obj_code)),
               ("The total is computed; finish.", SkillAction(kind=FINISH))],
        round_keys=[None, result_key],
        calls=[("Pull every matching row first.", "List the matching rows.",
                f"Fetch every {table} row whose {field_name} is {value}",
                lookup)],
        finish=("Plain tool calls cannot sum these rows.",
                "Finish[the rows are listed but the total needs computation]",
                "Nothing more a single call can do."),
        call_keys=[None, first_gold_id],
        codeact_scripts=[script, "Finish[total computed]"],
        codeact_keys=[None, result_key])


# --- entry points -----------------------------------------------------------------------

# recipe kind -> (rule-name prefix, solver)
_SOLVERS = {
    "khop": ("khop", _khop_solution),
    "writing": ("writing", _writing_solution),
    "aggregation": ("agg", _aggregation_solution),
}


def build_oracle_rules(task: Task) -> list[RuleFamily]:
    """Solve `task` and return its rules as lazy per-marker families, in
    matching order; flattened, they are the task's full rule list."""
    kind = task.recipe.get("kind")
    if kind not in _SOLVERS:
        raise ValueError(f"task {task.id} carries no oracle recipe")
    prefix, solve = _SOLVERS[kind]
    return _assemble(solve(task), prefix)


def oracle_backend(task: Task) -> ScriptedBackend:
    """A fresh rule-driven backend that solves this task under any method."""
    return ScriptedBackend.from_families(build_oracle_rules(task),
                                         label=f"oracle:{task.id}")


def never_finishing_backend() -> ScriptedBackend:
    """Never finishes under any method: each round plans or takes one more
    probe of a record that does not exist."""
    probe = [("Probe the environment once more.",
              SkillAction(SEARCHING, "probe the tables for anything new")),
             ("Wrap up.", SkillAction(kind=FINISH))]
    lookup = Lookup("get_record", "companies", "name", "Nonexistent Corp")
    pe_probe = [(probe[0][0], lookup.subtask), (probe[1][0], "Finish")]
    return ScriptedBackend([
        Rule.on_substrings(render_plan_steps(probe), PLANNING_MARKER,
                           name="nf-plan"),
        Rule.on_substrings(render_plan_steps([probe[0]]), NO_PLAN_MARKER,
                           name="nf-single"),
        Rule.on_substrings(lookup.emission, SEARCHING_MARKER, name="nf-search"),
        Rule.on_substrings(
            "The iteration budget was exhausted before an answer emerged.",
            SUMMARY_MARKER, name="nf-summary"),
        Rule.on_substrings(render_step_array(pe_probe), PE_PLAN_MARKER,
                           name="nf-pe-plan"),
        Rule.on_substrings(lookup.emission, PE_SUBTASK_MARKER,
                           name="nf-pe-sub"),
        Rule.on_substrings(_react_json(probe[0][0], lookup.action),
                           REACT_MARKER, name="nf-react"),
        Rule.on_substrings(f"return {lookup.script}", CODEACT_MARKER,
                           name="nf-codeact"),
    ], label="never-finishing")
