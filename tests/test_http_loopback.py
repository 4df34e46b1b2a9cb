"""The HTTP backend end to end over a socket: `goalact suite --backend http`
against a chat-completions server on a loopback port, which answers each
prompt from its task's oracle, writes the bytes a `scripted:oracle` suite
writes, and so does the same suite recorded to a cassette and replayed.
A raw socket server then plays scripted faults, one byte response per
request, and each ends as the HTTP client's fault table says."""

from __future__ import annotations

import contextlib
import json
import re
import socket
import threading
import time

import pytest

from goalact.backends import (
    AuthFailure,
    BackendUnavailable,
    CompletionRequest,
    HttpChatBackend,
    user_request,
)
from goalact.cli import main
from goalact.generator import generate_khop_task, generate_task, save_fixture
from goalact.oracle import oracle_backend
from goalact.orchestrator import METHOD_REACT, RunConfig, run_task
from goalact.plan import TERMINATION_FINISH

from conftest import oracle_server

CATEGORIES = ("1hop", "3hop", "5hop", "writing", "aggregation")
SEEDS = (1, 2)
METHODS = "goalact,planandsolve,planandexecute,react,codeact"


def _artifacts(run_dir):
    return {str(path.relative_to(run_dir)): path.read_bytes()
            for path in sorted(run_dir.rglob("*")) if path.is_file()}


def test_an_http_suite_over_loopback_writes_the_oracle_suites_bytes(
        tmp_path, monkeypatch, loopback_only, capsys):
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
    monkeypatch.setenv("GOALACT_MODEL", "scripted")
    with oracle_server(tasks) as base:
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


# --- scripted faults over a raw socket ---------------------------------------------

TIMEOUT = 0.3  # the client's, in seconds; a late body pauses for twice it


def _response(status: int, body: bytes, length: int | None = None) -> bytes:
    """An HTTP/1.1 response whose Content-Length is `length`, by default
    the body's own."""
    return (f"HTTP/1.1 {status} Scripted\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body) if length is None else length}\r\n"
            f"Connection: close\r\n\r\n").encode() + body


def _completion(text: str) -> bytes:
    return _response(200, json.dumps({"choices": [{"message": {
        "role": "assistant", "content": text}}]}).encode("utf-8"))


OK = _completion("ok")
CUT_200 = _response(200, b'{"cho', length=100)
CUT_503 = _response(503, b"Servi", length=100)
LATE_200 = (OK[:-5], 2 * TIMEOUT, OK[-5:])


def _read_request(conn: socket.socket) -> dict:
    data = b""
    while b"\r\n\r\n" not in data:
        data += conn.recv(65536)
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
    while len(body) < length:
        body += conn.recv(65536)
    return json.loads(body)


@contextlib.contextmanager
def _scripted_server(script):
    """(base URL, requests served) of a server on an ephemeral loopback
    port that answers its n-th request with script[n] and then closes the
    connection.  A reply is bytes, a tuple of bytes sent in turn and
    pauses in seconds, or a function of the request's JSON body returning
    bytes; a request past the script gets no reply."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    replies, served, workers = iter(script), [], []
    stop = threading.Event()

    def answer(conn, reply):
        with conn:
            try:
                request = _read_request(conn)
                served.append(request)
                if callable(reply):
                    reply = reply(request)
                for part in (reply,) if isinstance(reply, bytes) else reply:
                    if isinstance(part, bytes):
                        conn.sendall(part)
                    else:
                        time.sleep(part)
            except OSError:  # the client gave up first
                pass

    def accept():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(5)
            worker = threading.Thread(target=answer,
                                      args=(conn, next(replies, ())))
            workers.append(worker)
            worker.start()

    acceptor = threading.Thread(target=accept)
    acceptor.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", served
    finally:
        stop.set()
        acceptor.join(timeout=10)
        listener.close()
        for thread in [acceptor, *workers]:
            thread.join(timeout=10)
            assert not thread.is_alive()


def _client(base: str) -> HttpChatBackend:
    return HttpChatBackend(base, "k", "m", timeout=TIMEOUT,
                           sleeper=lambda seconds: None)


@pytest.mark.parametrize("first", [
    _response(429, b'{"error": "slow down"}'), CUT_200, CUT_503, LATE_200,
], ids=["429", "cut 200 body", "cut 503 body", "late body"])
def test_a_retried_fault_then_a_completion_takes_two_attempts(loopback_only,
                                                              first):
    with _scripted_server([first, OK]) as (base, served):
        completion = _client(base).complete(user_request("x"))
    assert completion == "ok"
    assert completion.attempts == len(served) == 2


@pytest.mark.parametrize("script, fault, match, attempts", [
    ([_response(503, b"busy")] * 4, BackendUnavailable,
     r"gave up after 4 attempts \(HTTP 503\)", 4),
    ([_response(401, b"no")], AuthFailure, "HTTP 401", 1),
    ([_response(200, b'{"choices": [{"message": {"content": "\xff"}}]}')],
     BackendUnavailable, "not UTF-8", 1),
], ids=["5xx on every attempt", "401", "200 not UTF-8"])
def test_a_fault_that_ends_the_call(loopback_only, script, fault, match,
                                    attempts):
    with _scripted_server(script) as (base, served):
        with pytest.raises(fault, match=match):
            _client(base).complete(user_request("x"))
    assert len(served) == attempts


def test_a_run_logs_the_attempts_a_429_cost(loopback_only):
    task, env = generate_khop_task(seed=7, k=1)
    oracle = oracle_backend(task)

    def from_oracle(request):
        return _completion(oracle.complete(CompletionRequest(
            tuple(request["messages"]), "scripted")))

    with _scripted_server([_response(429, b"{}")] + [from_oracle] * 8) \
            as (base, served):
        traj = run_task(task, env, RunConfig(method=METHOD_REACT),
                        _client(base))
    assert traj.termination_reason == TERMINATION_FINISH
    assert [call.attempts for call in traj.llm_calls] == \
        [2] + [1] * (len(traj.llm_calls) - 1)
    assert len(served) == len(traj.llm_calls) + 1


def test_a_suite_whose_endpoint_refuses_the_key_exits_three(
        tmp_path, monkeypatch, loopback_only, capsys):
    task, env = generate_khop_task(seed=7, k=1)
    save_fixture(task, env, tmp_path / "fixtures")
    out = tmp_path / "run"
    monkeypatch.setenv("GOALACT_MODEL", "m")
    with _scripted_server([_response(401, b"no")]) as (base, served):
        monkeypatch.setenv("GOALACT_API_BASE", base)
        assert main(["suite", "--fixtures", str(tmp_path / "fixtures"),
                     "--methods", "react", "--backend", "http",
                     "--out", str(out)]) == 3
    assert "HTTP 401" in capsys.readouterr().err
    assert len(served) == 1
    failures = json.loads((out / "manifest.json").read_text("utf-8"))[
        "failures"]
    assert [(f["method"], f["task_id"]) for f in failures] == [
        ("ReAct", task.id)]
