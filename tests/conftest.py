from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from goalact.backends import (
    CompletionRequest,
    Rule,
    ScriptedBackend,
    user_request,
)
from goalact.environment import Table, ToolEnvironment
from goalact.oracle import Lookup, _react_json, oracle_backend
from goalact.orchestrator import (
    CODEACT_MARKER,
    NO_PLAN_MARKER,
    PE_PLAN_MARKER,
    PE_SUBTASK_MARKER,
    REACT_MARKER,
    SUMMARY_MARKER,
)
from goalact.plan import PlanStep
from goalact.planner import PLANNING_MARKER
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


def plan_reply(steps) -> str:
    """(thinking, action text) pairs as the JSON array of a plan reply."""
    return json.dumps([{"Thinking": t, "Action": a} for t, a in steps],
                      ensure_ascii=False, indent=2)


def never_finishing_backend() -> ScriptedBackend:
    """Never finishes under any method: each round plans or takes one more
    probe of a record that does not exist."""
    probe = [("Probe the environment once more.",
              "Searching[probe the tables for anything new]"),
             ("Wrap up.", "Finish[]")]
    lookup = Lookup("get_record", "companies", "name", "Nonexistent Corp")
    pe_probe = [(probe[0][0], lookup.subtask), (probe[1][0], "Finish")]
    return ScriptedBackend([
        Rule.on_substrings(plan_reply(probe), PLANNING_MARKER,
                           name="nf-plan"),
        Rule.on_substrings(plan_reply([probe[0]]), NO_PLAN_MARKER,
                           name="nf-single"),
        Rule.on_substrings(lookup.emission, SEARCHING_MARKER, name="nf-search"),
        Rule.on_substrings(
            "The iteration budget was exhausted before an answer emerged.",
            SUMMARY_MARKER, name="nf-summary"),
        Rule.on_substrings(plan_reply(pe_probe), PE_PLAN_MARKER,
                           name="nf-pe-plan"),
        Rule.on_substrings(lookup.emission, PE_SUBTASK_MARKER,
                           name="nf-pe-sub"),
        Rule.on_substrings(_react_json(probe[0][0], lookup.action),
                           REACT_MARKER, name="nf-react"),
        Rule.on_substrings(f"return {lookup.script}", CODEACT_MARKER,
                           name="nf-codeact"),
    ], label="never-finishing")


QUESTION = "Question: "


@contextlib.contextmanager
def oracle_server(tasks):
    """The base URL of a chat-completions server on an ephemeral loopback
    port.  It routes each prompt by its `Question:` lines: a GoalAct
    planning prompt also holds its exemplars' questions, so exactly one
    line must name a query of the suite."""
    by_query = {task.query: task for task in tasks}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(
                int(self.headers["Content-Length"])))
            request = CompletionRequest(tuple(body["messages"]), body["model"])
            (query,) = by_query.keys() & {
                line[len(QUESTION):]
                for line in request.rendered().splitlines()
                if line.startswith(QUESTION)}
            content = oracle_backend(by_query[query]).complete(request)
            reply = json.dumps({"choices": [{"message": {
                "role": "assistant", "content": content}}]}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # shutdown() waits for the loop's next poll: 0.5 s at the default.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def loopback_only(monkeypatch):
    """No proxy stands between the client and the loopback server."""
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "127.0.0.1")
