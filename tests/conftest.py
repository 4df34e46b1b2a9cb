from __future__ import annotations

import pytest

from goalact.backends import Rule, ScriptedBackend, user_request
from goalact.environment import Table, ToolEnvironment
from goalact.plan import PlanStep


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
