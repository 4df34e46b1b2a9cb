from __future__ import annotations

import pytest

from goalact.backends import Rule, ScriptedBackend, user_request
from goalact.environment import Table, ToolEnvironment
from goalact.oracle import Lookup, _react_json
from goalact.orchestrator import (
    CODEACT_MARKER,
    NO_PLAN_MARKER,
    PE_PLAN_MARKER,
    PE_SUBTASK_MARKER,
    REACT_MARKER,
    SUMMARY_MARKER,
)
from goalact.plan import FINISH, SEARCHING, PlanStep, SkillAction
from goalact.planner import PLANNING_MARKER, render_plan_steps, render_step_array
from goalact.skills import SEARCHING_MARKER


@pytest.fixture
def company_env() -> ToolEnvironment:
    companies = Table(
        name="companies",
        key_field="name",
        rows=(
            {"name": "AlphaCorp", "city": "Port Meridell", "founded": "2019-04",
             "case_id": "CS-100"},
            {"name": "BetaWorks", "city": "Harrowgate", "founded": "2012-11",
             "case_id": "CS-200"},
        ),
    )
    cases = Table(
        name="cases",
        key_field="case_id",
        rows=(
            {"case_id": "CS-100", "status": "open", "amount": 1200},
            {"case_id": "CS-101", "status": "open", "amount": 800},
            {"case_id": "CS-200", "status": "closed", "amount": 50},
            {"case_id": "CS-201", "status": "open", "amount": 40},
        ),
    )
    return ToolEnvironment(tables=(companies, cases))


def scripted(*rules: Rule) -> ScriptedBackend:
    return ScriptedBackend(list(rules))


def executed_steps(*triples) -> tuple[PlanStep, ...]:
    """A history: one executed step per (thought, action, observation)."""
    return tuple(PlanStep(index=i, thought=thought, action=action)
                 .mark_executed(observation)
                 for i, (thought, action, observation)
                 in enumerate(triples, start=1))


def ask_of(backend):
    """A step's `ask(prompt)`, answered by `backend` as a run would."""
    return lambda prompt: backend.complete(user_request(prompt))


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
