"""Scripted oracle backends: rule sets that solve generated tasks perfectly.

For each task the builder derives, from the generator's construction recipe,
every completion the loops will request: plan continuations per round, tool
emissions per objective, sandbox scripts, documents, and summaries.  Rules
key on prompt-type markers plus values that first appear in the round they
belong to, so one rule set serves every method deterministically.

The summary rules come in two tiers: a success rule keyed on content that
only a completed run leaves in the history, and a fallback for runs that got
cut short.  That is what gives the ablation fixtures their exact score
separations.
"""

from __future__ import annotations

import json
from typing import Optional

from .backends import Rule, ScriptedBackend
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
from .sandbox import CODING_MARKER
from .skills import SEARCHING_MARKER, WRITING_MARKER

DISABLED_TEXT = "currently disabled"


def _tool_json(tool: str, table: str, field: str, value: str) -> str:
    return json.dumps({"tool": tool,
                       "args": {"table": table, "field": field, "value": value}})


def _react_json(thought: str, action: str) -> str:
    return json.dumps({"Thought": thought, "Action": action})


def _pe_round_rules(steps: list[tuple[str, str]],
                    round_keys: list[Optional[str]], prefix: str) -> list[Rule]:
    rules = []
    for t in range(len(round_keys), 1, -1):
        rules.append(Rule.on_substrings(
            render_step_array(steps[t - 1:]), PE_PLAN_MARKER,
            round_keys[t - 1], name=f"{prefix}-round{t}"))
    rules.append(Rule.on_substrings(render_step_array(steps), PE_PLAN_MARKER,
                                    name=f"{prefix}-round1"))
    return rules


def _round_rules(marker: str, steps: list[tuple[str, SkillAction]],
                 round_keys: list[Optional[str]], prefix: str) -> list[Rule]:
    """Plan-continuation rules, one per round, most specific first.

    round_keys[t-1] is the value that first appears in round t's prompt
    (None for the opening round).  The continuation at round t is the step
    suffix with t-1 steps already executed.
    """
    rules = [Rule.on_substrings(render_plan_steps([steps[-1]]), marker,
                                DISABLED_TEXT, name=f"{prefix}-disabled")]
    for t in range(len(round_keys), 1, -1):
        rules.append(Rule.on_substrings(
            render_plan_steps(steps[t - 1:]), marker, round_keys[t - 1],
            name=f"{prefix}-round{t}"))
    rules.append(Rule.on_substrings(render_plan_steps(steps), marker,
                                    name=f"{prefix}-round1"))
    return rules


def _single_step_rules(steps: list[tuple[str, SkillAction]],
                       round_keys: list[Optional[str]], prefix: str
                       ) -> list[Rule]:
    """Array-of-one responses for the plan-less GoalAct ablation."""
    rules = [Rule.on_substrings(render_plan_steps([steps[-1]]),
                                NO_PLAN_MARKER, DISABLED_TEXT,
                                name=f"{prefix}-disabled")]
    for t in range(len(round_keys), 1, -1):
        rules.append(Rule.on_substrings(
            render_plan_steps([steps[t - 1]]), NO_PLAN_MARKER,
            round_keys[t - 1], name=f"{prefix}-round{t}"))
    rules.append(Rule.on_substrings(render_plan_steps([steps[0]]),
                                    NO_PLAN_MARKER, name=f"{prefix}-round1"))
    return rules


def _react_rules(turns: list[tuple[str, str]],
                 round_keys: list[Optional[str]], prefix: str) -> list[Rule]:
    """turns[t-1] = (thought, action text) for round t."""
    rules = []
    for t in range(len(round_keys), 1, -1):
        rules.append(Rule.on_substrings(
            _react_json(*turns[t - 1]), REACT_MARKER, round_keys[t - 1],
            name=f"{prefix}-round{t}"))
    rules.append(Rule.on_substrings(_react_json(*turns[0]), REACT_MARKER,
                                    name=f"{prefix}-round1"))
    return rules


def _codeact_rules(scripts: list[str], round_keys: list[Optional[str]],
                   prefix: str) -> list[Rule]:
    rules = []
    for t in range(len(round_keys), 1, -1):
        rules.append(Rule.on_substrings(
            scripts[t - 1], CODEACT_MARKER, round_keys[t - 1],
            name=f"{prefix}-round{t}"))
    rules.append(Rule.on_substrings(scripts[0], CODEACT_MARKER,
                                    name=f"{prefix}-round1"))
    return rules


def _summary_rules(success_key: str, success_text: str,
                   fallback_text: str, prefix: str) -> list[Rule]:
    return [
        Rule.on_substrings(success_text, SUMMARY_MARKER, success_key,
                           name=f"{prefix}-summary-success"),
        Rule.on_substrings(fallback_text, SUMMARY_MARKER,
                           name=f"{prefix}-summary-fallback"),
    ]


# --- k-hop lookup tasks -------------------------------------------------------------

def _khop_rules(task: Task) -> list[Rule]:
    hops = task.recipe["hops"]
    answer = task.recipe["answer"]
    answer_field = task.recipe["answer_field"]
    k = len(hops)

    objectives = [
        'look up the %s record whose %s is "%s"'
        % (h["table"], h["lookup_field"], h["lookup_value"]) for h in hops
    ]
    steps = [
        (f"Hop {i}: resolve the {h['table']} record.",
         SkillAction(kind=SEARCHING, objective=objectives[i - 1]))
        for i, h in enumerate(hops, start=1)
    ]
    steps.append(("Every hop is resolved; finish.", SkillAction(kind=FINISH)))

    # Round t first sees hop t's key (t >= 2); the last round sees the answer.
    round_keys: list[Optional[str]] = [None]
    round_keys += [hops[t - 1]["lookup_value"] for t in range(2, k + 1)]
    round_keys.append(answer)

    rules = []
    for i, h in enumerate(hops):
        rules.append(Rule.on_substrings(
            _tool_json("get_record", h["table"], h["lookup_field"],
                       h["lookup_value"]),
            f"{SEARCHING_MARKER} {objectives[i]}",
            name=f"khop-search{i + 1}"))
    rules += _summary_rules(
        answer, f"The {answer_field} of the final record is {answer}.",
        "The requested value could not be determined.", "khop")
    rules += _round_rules(PLANNING_MARKER, steps, round_keys, "khop-plan")
    rules += _single_step_rules(steps, round_keys, "khop-single")

    react_turns = [
        (f"Hop {i}: fetch the {h['table']} record.",
         "get_record[table=%s, field=%s, value=%s]"
         % (h["table"], h["lookup_field"], h["lookup_value"]))
        for i, h in enumerate(hops, start=1)
    ]
    react_turns.append(("The final record is in hand.",
                        f"Finish[The {answer_field} is {answer}]"))
    rules += _react_rules(react_turns, round_keys, "khop-react")

    chain_lines = []
    for i, h in enumerate(hops, start=1):
        source = f'"{h["lookup_value"]}"' if i == 1 \
            else f"r{i - 1}.{h['lookup_field']}"
        chain_lines.append(
            f'r{i} = get_record("{h["table"]}", "{h["lookup_field"]}", {source})')
    chain_lines.append(f"return r{k}.{answer_field}")
    rules += _codeact_rules(
        ["\n".join(chain_lines), "Finish[the chain is resolved]"],
        [None, answer], "khop-codeact")

    subtasks = ['Fetch the %s record whose %s is "%s"'
                % (h["table"], h["lookup_field"], h["lookup_value"])
                for h in hops]
    pe_steps = [(f"Sub-task {i}: one lookup.", subtasks[i - 1])
                for i in range(1, k + 1)]
    pe_steps.append(("All sub-tasks done.", "Finish"))
    rules += _pe_round_rules(pe_steps, round_keys, "khop-pe")
    for i, h in enumerate(hops):
        rules.append(Rule.on_substrings(
            _tool_json("get_record", h["table"], h["lookup_field"],
                       h["lookup_value"]),
            f"{PE_SUBTASK_MARKER} {subtasks[i]}",
            name=f"khop-pe-sub{i + 1}"))
    return rules


# --- writing tasks ------------------------------------------------------------------

def _writing_rules(task: Task) -> list[Rule]:
    r = task.recipe
    plaintiff_id = task.gold_path[0][1]
    doc_marker = r["doc_marker"]

    obj_plaintiff = 'look up the parties record whose legal_name is "%s"' \
        % r["plaintiff_name"]
    obj_defendant = 'look up the parties record whose legal_name is "%s"' \
        % r["defendant_name"]
    obj_lawyer = 'look up the lawyers record whose lawyer_id is "%s"' \
        % r["counsel_id"]
    obj_statutes = 'filter the statutes records whose topic is "%s"' % r["topic"]
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

    steps = [
        ("Gather the plaintiff's registered details.",
         SkillAction(SEARCHING, obj_plaintiff)),
        ("Gather the defendant's registered details.",
         SkillAction(SEARCHING, obj_defendant)),
        ("Identify the defendant's counsel.", SkillAction(SEARCHING, obj_lawyer)),
        ("Collect the statutes on the disputed topic.",
         SkillAction(SEARCHING, obj_statutes)),
        ("Compose the defense brief from the gathered material.",
         SkillAction(WRITING, obj_write)),
        ("The brief is complete; finish.", SkillAction(kind=FINISH)),
    ]
    round_keys: list[Optional[str]] = [None, plaintiff_id,
                                       r["registration_code"], r["bar_number"],
                                       r["statute_ids"][0], doc_marker]

    emissions = [
        _tool_json("get_record", "parties", "legal_name", r["plaintiff_name"]),
        _tool_json("get_record", "parties", "legal_name", r["defendant_name"]),
        _tool_json("get_record", "lawyers", "lawyer_id", r["counsel_id"]),
        _tool_json("filter_records", "statutes", "topic", r["topic"]),
    ]
    objectives = [obj_plaintiff, obj_defendant, obj_lawyer, obj_statutes]

    rules = []
    for i, (objective, emission) in enumerate(zip(objectives, emissions)):
        rules.append(Rule.on_substrings(
            emission, f"{SEARCHING_MARKER} {objective}",
            name=f"writing-search{i + 1}"))
    rules.append(Rule.on_substrings(
        document, f"{WRITING_MARKER} {obj_write}", name="writing-compose"))
    rules += _summary_rules(
        doc_marker, document,
        "A complete defense brief could not be produced. Parties involved: "
        f"{r['plaintiff_name']} versus {r['defendant_name']}.", "writing")
    rules += _round_rules(PLANNING_MARKER, steps, round_keys, "writing-plan")
    rules += _single_step_rules(steps, round_keys, "writing-single")

    react_turns = [
        ("Start with the plaintiff's record.",
         "get_record[table=parties, field=legal_name, value=%s]"
         % r["plaintiff_name"]),
        ("Now the defendant's record.",
         "get_record[table=parties, field=legal_name, value=%s]"
         % r["defendant_name"]),
        ("Find the defendant's counsel.",
         "get_record[table=lawyers, field=lawyer_id, value=%s]"
         % r["counsel_id"]),
        ("Collect the statutes for the topic.",
         "filter_records[table=statutes, field=topic, value=%s]" % r["topic"]),
        ("The facts are gathered.", "Finish[facts gathered]"),
    ]
    rules += _react_rules(react_turns, round_keys[:5], "writing-react")

    codeact_script = "\n".join([
        'd = get_record("parties", "legal_name", "%s")' % r["defendant_name"],
        'l = get_record("lawyers", "lawyer_id", d.counsel_id)',
        "return [d, l]",
    ])
    rules += _codeact_rules([codeact_script, "Finish[facts gathered]"],
                            [None, r["bar_number"]], "writing-codeact")

    subtasks = [
        'Fetch the parties record whose legal_name is "%s"' % r["plaintiff_name"],
        'Fetch the parties record whose legal_name is "%s"' % r["defendant_name"],
        'Fetch the lawyers record whose lawyer_id is "%s"' % r["counsel_id"],
        'Filter the statutes records whose topic is "%s"' % r["topic"],
    ]
    pe_steps = [(f"Sub-task {i}.", text)
                for i, text in enumerate(subtasks, start=1)]
    pe_steps.append(("All facts fetched.", "Finish"))
    rules += _pe_round_rules(pe_steps, round_keys[:5], "writing-pe")
    for i, (subtask, emission) in enumerate(zip(subtasks, emissions)):
        rules.append(Rule.on_substrings(
            emission, f"{PE_SUBTASK_MARKER} {subtask}",
            name=f"writing-pe-sub{i + 1}"))
    return rules


# --- aggregation tasks ----------------------------------------------------------------

def _aggregation_rules(task: Task) -> list[Rule]:
    r = task.recipe
    table, field_name = r["table"], r["filter_field"]
    value, sum_field = r["filter_value"], r["sum_field"]
    rendered_total = r["rendered_total"]
    result_key = f"Result: {rendered_total}"
    first_gold_id = task.gold_path[0][1]

    obj_code = (f"filter {table} by {field_name} {value} and sum the "
                f"{sum_field} field")
    script = "\n".join([
        f'rows = filter_records("{table}", "{field_name}", "{value}")',
        "total = 0",
        "for r in rows { total = total + r.%s }" % sum_field,
        "return total",
    ])

    steps = [
        ("Too many rows to fetch one by one; compute the total with a script.",
         SkillAction(CODING, obj_code)),
        ("The total is computed; finish.", SkillAction(kind=FINISH)),
    ]
    round_keys: list[Optional[str]] = [None, result_key]

    rules = [Rule.on_substrings(script, f"{CODING_MARKER} {obj_code}",
                                name="agg-script")]
    rules += _summary_rules(
        result_key, f"The total amount is {rendered_total}.",
        "The total could not be computed within the available budget.", "agg")
    rules += _round_rules(PLANNING_MARKER, steps, round_keys, "agg-plan")
    rules += _single_step_rules(steps, round_keys, "agg-single")

    react_turns = [
        ("Pull every matching row first.",
         f"filter_records[table={table}, field={field_name}, value={value}]"),
        ("Plain tool calls cannot sum these rows.",
         "Finish[the rows are listed but the total needs computation]"),
    ]
    rules += _react_rules(react_turns, [None, first_gold_id], "agg-react")
    rules += _codeact_rules([script, "Finish[total computed]"],
                            [None, result_key], "agg-codeact")

    subtask = f"Fetch every {table} row whose {field_name} is {value}"
    pe_steps = [("List the matching rows.", subtask),
                ("Nothing more a single call can do.", "Finish")]
    rules += _pe_round_rules(pe_steps, [None, first_gold_id], "agg-pe")
    rules.append(Rule.on_substrings(
        _tool_json("filter_records", table, field_name, value),
        f"{PE_SUBTASK_MARKER} {subtask}", name="agg-pe-sub"))
    return rules


# --- assembly ---------------------------------------------------------------------------

def build_oracle_rules(task: Task) -> list[Rule]:
    kind = task.recipe.get("kind")
    if kind == "khop":
        return _khop_rules(task)
    if kind == "writing":
        return _writing_rules(task)
    if kind == "aggregation":
        return _aggregation_rules(task)
    raise ValueError(f"task {task.id} carries no oracle recipe")


def oracle_backend(task: Task) -> ScriptedBackend:
    """A fresh rule-driven backend that solves this task under any method."""
    return ScriptedBackend(build_oracle_rules(task), label=f"oracle:{task.id}")


def never_finishing_backend() -> ScriptedBackend:
    """Never finishes under any method: each round plans or takes one more
    probe of a record that does not exist."""
    probe = [("Probe the environment once more.",
              SkillAction(SEARCHING, "probe the tables for anything new")),
             ("Wrap up.", SkillAction(kind=FINISH))]
    table, field, value = "companies", "name", "Nonexistent Corp"
    lookup_call = _tool_json("get_record", table, field, value)
    pe_probe = [(probe[0][0], f'Fetch the {table} record whose {field} is '
                              f'"{value}"'),
                (probe[1][0], "Finish")]
    return ScriptedBackend([
        Rule.on_substrings(render_plan_steps(probe), PLANNING_MARKER,
                           name="nf-plan"),
        Rule.on_substrings(render_plan_steps([probe[0]]), NO_PLAN_MARKER,
                           name="nf-single"),
        Rule.on_substrings(lookup_call, SEARCHING_MARKER, name="nf-search"),
        Rule.on_substrings(
            "The iteration budget was exhausted before an answer emerged.",
            SUMMARY_MARKER, name="nf-summary"),
        Rule.on_substrings(render_step_array(pe_probe), PE_PLAN_MARKER,
                           name="nf-pe-plan"),
        Rule.on_substrings(lookup_call, PE_SUBTASK_MARKER, name="nf-pe-sub"),
        Rule.on_substrings(
            _react_json(probe[0][0], f"get_record[table={table}, "
                                     f"field={field}, value={value}]"),
            REACT_MARKER, name="nf-react"),
        Rule.on_substrings(f'return get_record("{table}", "{field}", '
                           f'"{value}")', CODEACT_MARKER, name="nf-codeact"),
    ], label="never-finishing")
