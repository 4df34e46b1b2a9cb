"""Scripted oracle backends: rule sets that solve generated tasks perfectly.

Each task kind has a `Solution` class that reads the generator's
construction recipe: the skill texts (tool emissions per objective, sandbox
scripts, documents), the summary texts, and, for every method, the response
it must read in each round together with the value that first appears in
that round's prompt.  Every tool call a solution names is one `Lookup`,
which spells each of its forms; ReAct and Plan-and-Execute make the same
calls, one a round.  A solution writes each text the first time it is read
and knows no method's marker or rule names.

The rules come as per-marker families, one module-level builder each: the
builders alone know the method markers, the rule-naming scheme and the
family order, and one helper, `_round_rules`, writes every method's round
family.  A kind lists only the families that hold rules for it: a k-hop
task has no Writing or Coding family, an aggregation task no Searching or
Writing family, a writing task no Coding family.  Rules key on a
prompt-type marker plus the round's first new value, most specific round
first, so one rule set serves every method deterministically.

`build_oracle_rules` solves nothing and renders no rule: it binds the kind's
builders to a fresh solution, so a backend built from the families writes
only the texts of the prompt types a run sends (a CodeAct run writes its
scripts and summary, never a plan or an objective, and only GoalAct, its
ablations and Plan-and-Solve, which run skills, render skill rules).  Every
text the scripted model writes is written here, the JSON ones with json's C
string encoder: a lookup's emission and a ReAct turn byte for byte what
`json.dumps` writes with its defaults (`ensure_ascii`, `", "` and `": "`), a
plan reply what it writes with `ensure_ascii=False, indent=2`.  A plan
family renders each step's JSON object once (`render_step_object`) and joins
each round's suffix from those objects (`join_step_objects`): GoalAct and
Plan-and-Execute re-plan every round, so a plan of n+1 steps is read as n+1
suffixes, which rendered whole would write (n+1)(n+2)/2 step objects.  Every
rule holds its family's marker in one of its substrings; `ScriptedBackend`
checks this when it builds a family, in the same pass that drops the marker
from the substrings it tests, and refuses a rule that does not.

The summary rules come in two tiers: a success rule keyed on content that
only a completed run leaves in the history, and a fallback for runs that got
cut short.  That is what gives the ablation fixtures their exact score
separations.
"""

from __future__ import annotations

from functools import partial
from json.encoder import encode_basestring as _encode_unicode
from json.encoder import encode_basestring_ascii as _encode_string
from typing import Any, Callable, NamedTuple, Optional, Sequence

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
from .planner import PLANNING_MARKER
from .records import quoted
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
    emission = property(lambda self: (
        f'{{"tool": {_encode_string(self.tool)}, "args": {{"table": '
        f'{_encode_string(self.table)}, "field": {_encode_string(self.field)}'
        f', "value": {_encode_string(self.value)}}}}}'))
    action = property(lambda self: f"{self.tool}[table={self.table}, "
                                   f"field={self.field}, value={self.value}]")
    script = property(lambda self: f'{self.tool}("{self.table}", '
                                   f'"{self.field}", "{self.value}")')


def _react_json(thought: str, action: str) -> str:
    return (f'{{"Thought": {_encode_string(thought)}, '
            f'"Action": {_encode_string(action)}}}')


def render_step_object(thinking: str, action: str) -> str:
    """One step object of a plan reply, as `join_step_objects` joins it."""
    return (f'  {{\n    "Thinking": {_encode_unicode(thinking)},\n'
            f'    "Action": {_encode_unicode(action)}\n  }}')


def join_step_objects(objects: Sequence[str]) -> str:
    """Rendered step objects as a plan reply: the bytes of `json.dumps([
    {"Thinking": t, "Action": a}, ...], ensure_ascii=False, indent=2)`, with
    json's C string encoder, where `indent=` would take the pure-Python one.
    A family joining several arrays from one list renders each step once."""
    return "[\n" + ",\n".join(objects) + "\n]" if objects else "[]"


def _searching_rules(lookups: list[Lookup], prefix: str) -> list[Rule]:
    """The Searching skill: each lookup's objective answered by its emission."""
    return [Rule.on_substrings(lookup.emission,
                               f"{SEARCHING_MARKER} {lookup.objective}",
                               name=f"{prefix}-search{i}")
            for i, lookup in enumerate(lookups, start=1)]


def _read_texts(fields: Any, *names: Any) -> None:
    """TypeError unless each named field, which some rule holds, is a str."""
    for name in names:
        if not isinstance(fields[name], str):
            raise TypeError(f"recipe field {name!r} holds "
                            f"{quoted(fields[name])}, not a string")


class _written:
    """A solution field written on its first read and kept on the solution:
    `functools.cached_property` without the lock it takes on every first
    read (Python < 3.12), which a solution, read by one run's thread, does
    not need."""

    def __init__(self, write: Callable[[Any], Any]):
        self.write, self.name = write, write.__name__

    def __get__(self, solution: Any, owner: Optional[type] = None) -> Any:
        if solution is None:
            return self
        value = solution.__dict__[self.name] = self.write(solution)
        return value


class Solution:
    """What one task answers to every prompt, each text written when first
    read; a subclass per task kind reads its recipe.  As a solution is made,
    `read_recipe` reads every recipe field its families read, and refuses
    one not a string, writing no text.

    A `*_keys` list holds, per round, the value that first appears in that
    round's prompt (None for round 1).  ReAct and Plan-and-Execute make the
    same call in each round, one per entry of `calls`, and then finish;
    `call_keys` holds both methods' keys.
    """
    prefix: str  # of every rule name
    families: tuple[tuple[str, Callable[["Solution"], list[Rule]]], ...]
    # summary: (success key, success text, fallback)
    # steps: round t executes steps[t-1]; round_keys: one per step
    # calls: (ReAct thought, Plan-and-Execute thinking, the call) per call
    # finish: (ReAct thought, ReAct action, Plan-and-Execute thinking)
    # call_keys: one per call, then the finishing round's
    # codeact_scripts and codeact_keys: one per CodeAct round

    def __init__(self, task: Task):
        self.task = task
        self.recipe = task.recipe
        self.read_recipe()

    @_written
    def subtasks(self) -> list[str]:
        """Plan-and-Execute's sub-task per call."""
        return [lookup.subtask for *_, lookup in self.calls]


# --- rule families ------------------------------------------------------------------
# Each builder renders one marker's rules for a solution; every one of those
# rules holds the marker in one of its substrings, which is what lets a
# backend match a prompt within the family of the one marker it holds.

def _round_rules(marker: str, responses: list[str], round_keys: Keys,
                 prefix: str, disabled: bool = False) -> list[Rule]:
    """One rule per round, last round first: round t answers
    responses[t-1] and keys on round_keys[t-1]; the opening round keys on
    the marker only.  With `disabled`, a first rule answers a "currently
    disabled" prompt with the last response."""
    rules = [Rule(responses[-1], (marker, DISABLED_TEXT),
                  f"{prefix}-disabled")] if disabled else []
    rules += [Rule(responses[t - 1], (marker, round_keys[t - 1]),
                   f"{prefix}-round{t}")
              for t in range(len(round_keys), 1, -1)]
    rules.append(Rule(responses[0], (marker,), f"{prefix}-round1"))
    return rules


def _suffix_arrays(objects: list[str]) -> list[str]:
    """Each round's plan continuation from rendered step objects: round t's
    is the step suffix with t-1 steps executed."""
    return [join_step_objects(objects[t:]) for t in range(len(objects))]


def _plan_objects(s: Solution) -> list[str]:
    return [render_step_object(thought, action.render())
            for thought, action in s.steps]


def _searching_family(s: Solution) -> list[Rule]:
    return _searching_rules(s.lookups, s.prefix)


def _writing_family(s: Solution) -> list[Rule]:
    return [Rule.on_substrings(s.document,
                               f"{WRITING_MARKER} {s.write_objective}",
                               name="writing-compose")]


def _coding_family(s: Solution) -> list[Rule]:
    return [Rule.on_substrings(s.script,
                               f"{CODING_MARKER} {s.code_objective}",
                               name="agg-script")]


def _summary_family(s: Solution) -> list[Rule]:
    success_key, success_text, fallback_text = s.summary
    return [Rule.on_substrings(success_text, SUMMARY_MARKER, success_key,
                               name=f"{s.prefix}-summary-success"),
            Rule.on_substrings(fallback_text, SUMMARY_MARKER,
                               name=f"{s.prefix}-summary-fallback")]


def _plan_family(s: Solution) -> list[Rule]:
    return _round_rules(PLANNING_MARKER, _suffix_arrays(_plan_objects(s)),
                        s.round_keys, f"{s.prefix}-plan", disabled=True)


def _single_family(s: Solution) -> list[Rule]:
    # The plan-less ablation answers with just step t.
    return _round_rules(NO_PLAN_MARKER,
                        [join_step_objects([step])
                         for step in _plan_objects(s)],
                        s.round_keys, f"{s.prefix}-single", disabled=True)


def _react_family(s: Solution) -> list[Rule]:
    turns = [(thought, lookup.action) for thought, _, lookup in s.calls]
    turns.append(s.finish[:2])
    return _round_rules(REACT_MARKER, [_react_json(*turn) for turn in turns],
                        s.call_keys, f"{s.prefix}-react")


def _codeact_family(s: Solution) -> list[Rule]:
    return _round_rules(CODEACT_MARKER, s.codeact_scripts, s.codeact_keys,
                        f"{s.prefix}-codeact")


def _pe_plan_family(s: Solution) -> list[Rule]:
    objects = [render_step_object(thinking, subtask)
               for (_, thinking, _), subtask in zip(s.calls, s.subtasks)]
    objects.append(render_step_object(s.finish[2], "Finish"))
    return _round_rules(PE_PLAN_MARKER, _suffix_arrays(objects), s.call_keys,
                        f"{s.prefix}-pe")


def _pe_subtask_family(s: Solution) -> list[Rule]:
    return [Rule.on_substrings(lookup.emission,
                               f"{PE_SUBTASK_MARKER} {subtask}",
                               name=f"{s.prefix}-pe-sub{i}")
            for i, ((*_, lookup), subtask)
            in enumerate(zip(s.calls, s.subtasks), start=1)]


# Every kind's method families, after its skill families, in matching order.
_METHOD_FAMILIES = (
    (SUMMARY_MARKER, _summary_family),
    (PLANNING_MARKER, _plan_family),
    (NO_PLAN_MARKER, _single_family),
    (REACT_MARKER, _react_family),
    (CODEACT_MARKER, _codeact_family),
    (PE_PLAN_MARKER, _pe_plan_family),
    (PE_SUBTASK_MARKER, _pe_subtask_family),
)


# --- k-hop lookup tasks -------------------------------------------------------------

class _KhopSolution(Solution):
    prefix = "khop"
    families = ((SEARCHING_MARKER, _searching_family), *_METHOD_FAMILIES)

    def read_recipe(self) -> None:
        for hop in self.recipe["hops"]:
            _read_texts(hop, "table", "lookup_field", "lookup_value")
        _read_texts(self.recipe, "answer", "answer_field")
        # The first hop too: with none, the plan's rounds outnumber its steps.
        self.lookups[0]

    @_written
    def lookups(self) -> list[Lookup]:
        return [Lookup("get_record", h["table"], h["lookup_field"],
                       h["lookup_value"]) for h in self.recipe["hops"]]

    @_written
    def summary(self) -> tuple[str, str, str]:
        answer = self.recipe["answer"]
        return (answer, f"The {self.recipe['answer_field']} of the final "
                        f"record is {answer}.",
                "The requested value could not be determined.")

    @_written
    def steps(self) -> list[tuple[str, SkillAction]]:
        steps = [(f"Hop {i}: resolve the {lookup.table} record.",
                  SkillAction(kind=SEARCHING, objective=lookup.objective))
                 for i, lookup in enumerate(self.lookups, start=1)]
        steps.append(("Every hop is resolved; finish.",
                      SkillAction(kind=FINISH)))
        return steps

    @_written
    def round_keys(self) -> Keys:
        # Round t first sees hop t's key (t >= 2); the last round sees the
        # answer.
        return [None, *(lookup.value for lookup in self.lookups[1:]),
                self.recipe["answer"]]

    call_keys = property(lambda self: self.round_keys)

    @_written
    def calls(self) -> list[tuple[str, str, Lookup]]:
        return [(f"Hop {i}: fetch the {lookup.table} record.",
                 f"Sub-task {i}: one lookup.", lookup)
                for i, lookup in enumerate(self.lookups, start=1)]

    @_written
    def finish(self) -> tuple[str, str, str]:
        return ("The final record is in hand.",
                f"Finish[The {self.recipe['answer_field']} is "
                f"{self.recipe['answer']}]",
                "All sub-tasks done.")

    @_written
    def codeact_scripts(self) -> list[str]:
        hops = self.recipe["hops"]
        chain_lines = []
        for i, h in enumerate(hops, start=1):
            source = f'"{h["lookup_value"]}"' if i == 1 \
                else f"r{i - 1}.{h['lookup_field']}"
            chain_lines.append(f'r{i} = get_record("{h["table"]}", '
                               f'"{h["lookup_field"]}", {source})')
        chain_lines.append(
            f"return r{len(hops)}.{self.recipe['answer_field']}")
        return ["\n".join(chain_lines), "Finish[the chain is resolved]"]

    codeact_keys = property(lambda self: [None, self.recipe["answer"]])


# --- writing tasks ------------------------------------------------------------------

class _WritingSolution(Solution):
    prefix = "writing"
    families = ((SEARCHING_MARKER, _searching_family),
                (WRITING_MARKER, _writing_family), *_METHOD_FAMILIES)
    write_objective = ("compose the defense brief citing the gathered "
                       "parties, counsel, and statutes")
    finish = ("The facts are gathered.", "Finish[facts gathered]",
              "All facts fetched.")

    def read_recipe(self) -> None:
        r = self.recipe
        _read_texts(r, "plaintiff_name", "defendant_name", "registration_code",
                    "counsel_id", "counsel_name", "bar_number", "topic",
                    "doc_marker")
        _read_texts(r["statute_ids"], 0, 1)
        self.task.gold_path[0][1]

    @_written
    def lookups(self) -> list[Lookup]:
        r = self.recipe
        return [Lookup("get_record", "parties", "legal_name",
                       r["plaintiff_name"]),
                Lookup("get_record", "parties", "legal_name",
                       r["defendant_name"]),
                Lookup("get_record", "lawyers", "lawyer_id", r["counsel_id"]),
                Lookup("filter_records", "statutes", "topic", r["topic"])]

    @_written
    def document(self) -> str:
        r = self.recipe
        return (
            f"{r['doc_marker']}\n"
            f"On behalf of the defendant {r['defendant_name']} (registration "
            f"{r['registration_code']}), counsel {r['counsel_name']} (bar "
            f"number {r['bar_number']}) answers the complaint brought by the "
            f"plaintiff {r['plaintiff_name']}. The defense invokes "
            f"{r['statute_ids'][0]} and {r['statute_ids'][1]}, both governing "
            f"{r['topic']}, and requests dismissal of every claim."
        )

    @_written
    def summary(self) -> tuple[str, str, str]:
        r = self.recipe
        return (r["doc_marker"], self.document,
                "A complete defense brief could not be produced. Parties "
                f"involved: {r['plaintiff_name']} versus "
                f"{r['defendant_name']}.")

    @_written
    def steps(self) -> list[tuple[str, SkillAction]]:
        thoughts = ["Gather the plaintiff's registered details.",
                    "Gather the defendant's registered details.",
                    "Identify the defendant's counsel.",
                    "Collect the statutes on the disputed topic."]
        steps = [(thought, SkillAction(SEARCHING, lookup.objective))
                 for thought, lookup in zip(thoughts, self.lookups)]
        steps += [("Compose the defense brief from the gathered material.",
                   SkillAction(WRITING, self.write_objective)),
                  ("The brief is complete; finish.", SkillAction(kind=FINISH))]
        return steps

    @_written
    def round_keys(self) -> Keys:
        r = self.recipe
        return [None, self.task.gold_path[0][1], r["registration_code"],
                r["bar_number"], r["statute_ids"][0], r["doc_marker"]]

    call_keys = property(lambda self: self.round_keys[:5])

    @_written
    def calls(self) -> list[tuple[str, str, Lookup]]:
        react_thoughts = ["Start with the plaintiff's record.",
                          "Now the defendant's record.",
                          "Find the defendant's counsel.",
                          "Collect the statutes for the topic."]
        return [(thought, f"Sub-task {i}.", lookup)
                for i, (thought, lookup)
                in enumerate(zip(react_thoughts, self.lookups), start=1)]

    @_written
    def codeact_scripts(self) -> list[str]:
        return ["\n".join([
            f"d = {self.lookups[1].script}",
            'l = get_record("lawyers", "lawyer_id", d.counsel_id)',
            "return [d, l]",
        ]), "Finish[facts gathered]"]

    codeact_keys = property(lambda self: [None, self.recipe["bar_number"]])


# --- aggregation tasks ----------------------------------------------------------------

class _AggregationSolution(Solution):
    prefix = "agg"
    families = ((CODING_MARKER, _coding_family), *_METHOD_FAMILIES)
    finish = ("Plain tool calls cannot sum these rows.",
              "Finish[the rows are listed but the total needs computation]",
              "Nothing more a single call can do.")

    def read_recipe(self) -> None:
        _read_texts(self.recipe, "table", "filter_field", "filter_value",
                    "sum_field", "rendered_total")
        self.task.gold_path[0][1]

    @_written
    def code_objective(self) -> str:
        r = self.recipe
        return (f"filter {r['table']} by {r['filter_field']} "
                f"{r['filter_value']} and sum the {r['sum_field']} field")

    @_written
    def script(self) -> str:
        lookup = self.calls[0][2]
        return "\n".join([
            f"rows = {lookup.script}",
            "total = 0",
            "for r in rows { total = total + r.%s }" % self.recipe["sum_field"],
            "return total",
        ])

    @_written
    def result_key(self) -> str:
        return f"Result: {self.recipe['rendered_total']}"

    @_written
    def summary(self) -> tuple[str, str, str]:
        return (self.result_key,
                f"The total amount is {self.recipe['rendered_total']}.",
                "The total could not be computed within the available "
                "budget.")

    @_written
    def steps(self) -> list[tuple[str, SkillAction]]:
        return [("Too many rows to fetch one by one; compute the total with "
                 "a script.", SkillAction(CODING, self.code_objective)),
                ("The total is computed; finish.", SkillAction(kind=FINISH))]

    @_written
    def round_keys(self) -> Keys:
        return [None, self.result_key]

    @_written
    def calls(self) -> list[tuple[str, str, Lookup]]:
        r = self.recipe
        return [("Pull every matching row first.", "List the matching rows.",
                 Lookup("filter_records", r["table"], r["filter_field"],
                        r["filter_value"]))]

    @_written
    def subtasks(self) -> list[str]:
        r = self.recipe
        return [f"Fetch every {r['table']} row whose {r['filter_field']} is "
                f"{r['filter_value']}"]

    call_keys = property(lambda self: [None, self.task.gold_path[0][1]])
    codeact_scripts = property(
        lambda self: [self.script, "Finish[total computed]"])
    codeact_keys = property(lambda self: self.round_keys)


# --- entry points -----------------------------------------------------------------------

# recipe kind -> its solution
_SOLVERS: dict[str, type[Solution]] = {
    "khop": _KhopSolution,
    "writing": _WritingSolution,
    "aggregation": _AggregationSolution,
}


def build_oracle_rules(task: Task) -> list[RuleFamily]:
    """The task's rules as lazy per-marker families, in matching order: its
    kind's builders bound to one fresh solution.  Flattened, they are the
    task's full rule list; a malformed recipe raises a ValueError."""
    solver = _SOLVERS.get(task.recipe.get("kind"))
    if solver is None:
        raise ValueError(f"task {task.id} carries no oracle recipe")
    try:
        solution = solver(task)
    except (LookupError, TypeError) as exc:
        raise ValueError(f"task {task.id} carries a malformed oracle recipe: "
                         f"{exc!r}") from exc
    return [(marker, partial(build, solution))
            for marker, build in solver.families]


def oracle_backend(task: Task) -> ScriptedBackend:
    """A fresh rule-driven backend that solves this task under any method."""
    return ScriptedBackend.from_families(build_oracle_rules(task),
                                         label=f"oracle:{task.id}")

