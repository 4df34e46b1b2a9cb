"""The HTTP backend end to end over a socket: `goalact suite --backend http`
against a chat-completions server on a loopback port, which answers each
prompt from its task's oracle, writes the bytes a `scripted:oracle` suite
writes, and so does the same suite recorded to a cassette and replayed."""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from goalact.backends import CompletionRequest
from goalact.cli import main
from goalact.generator import generate_task, save_fixture
from goalact.oracle import oracle_backend

CATEGORIES = ("1hop", "3hop", "5hop", "writing", "aggregation")
SEEDS = (1, 2)
METHODS = "goalact,planandsolve,planandexecute,react,codeact"
QUESTION = "Question: "


@contextlib.contextmanager
def _oracle_server(tasks):
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _artifacts(run_dir):
    return {str(path.relative_to(run_dir)): path.read_bytes()
            for path in sorted(run_dir.rglob("*")) if path.is_file()}


def test_an_http_suite_over_loopback_writes_the_oracle_suites_bytes(
        tmp_path, monkeypatch, capsys):
    fixtures = tmp_path / "fixtures"
    tasks = []
    for category in CATEGORIES:
        for seed in SEEDS:
            task, env = generate_task(category, seed)
            assert "\n" not in task.query
            save_fixture(task, env, fixtures)
            tasks.append(task)
    cassette = tmp_path / "cassette.jsonl"

    def suite(name, backend, jobs=1):
        out = tmp_path / name
        assert main(["suite", "--fixtures", str(fixtures), "--methods",
                     METHODS, "--backend", backend, "--jobs", str(jobs),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        return _artifacts(out)

    expected = suite("oracle", "scripted:oracle")
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "127.0.0.1")
    monkeypatch.setenv("GOALACT_MODEL", "scripted")
    with _oracle_server(tasks) as base:
        monkeypatch.setenv("GOALACT_API_BASE", base)
        runs = {"http, jobs 1": suite("http1", "http"),
                "http, jobs 2": suite("http2", "http", jobs=2),
                "record": suite("record", f"record:{cassette}", jobs=2)}
    # The server is gone: the replay answers from the cassette alone.
    runs["replay"] = suite("replay", f"replay:{cassette}")
    manifest = json.loads(expected.pop("manifest.json"))
    assert len(expected) == 7  # five logs, report.txt and report.json
    for name, artifacts in runs.items():
        run_manifest = json.loads(artifacts.pop("manifest.json"))
        assert artifacts == expected, name
        assert {key for key in manifest.keys() | run_manifest.keys()
                if manifest.get(key) != run_manifest.get(key)} <= {
            "backend", "config_hash", "jobs"}, name
