from __future__ import annotations

import hashlib
import http.client
import json
import random
import sys
import threading

import pytest

from goalact import backends
from goalact.backends import (
    BENCHMARK_TEMPERATURE,
    CassetteRecorder,
    CassetteReplayBackend,
    Completion,
    CompletionRequest,
    HttpChatBackend,
    Rule,
    ScriptedBackend,
    decode_json,
    load_rules_file,
    request_hash,
    save_rules_file,
    user_request,
)
from goalact.errors import (
    AuthFailure,
    BackendUnavailable,
    CassetteMiss,
    FatalError,
    RuleMiss,
)
from goalact.planner import strip_code_fences


def _req(text: str, model: str = "scripted") -> CompletionRequest:
    return user_request(text, model=model)


# --- scripted backend ------------------------------------------------------------

def test_substring_rule_requires_every_key():
    backend = ScriptedBackend([
        Rule.on_substrings("both", "alpha", "beta"),
        Rule.on_substrings("only-alpha", "alpha"),
    ])
    assert backend.complete(_req("alpha and beta together")) == "both"
    assert backend.complete(_req("alpha alone")) == "only-alpha"


def test_first_matching_rule_wins_in_listing_order():
    backend = ScriptedBackend([
        Rule.on_substrings("specific", "needle", "haystack"),
        Rule.on_substrings("generic", "needle"),
    ])
    assert backend.complete(_req("needle in a haystack")) == "specific"
    assert backend.complete(_req("just a needle")) == "generic"


def test_rule_miss_is_a_hard_error_naming_the_closest_rule():
    backend = ScriptedBackend([
        Rule.on_substrings("a", "alpha", "beta", name="pair-rule"),
    ])
    with pytest.raises(RuleMiss) as exc_info:
        backend.complete(_req("alpha only"))
    assert "pair-rule" in str(exc_info.value)


def test_a_rule_without_a_matcher_never_matches():
    with pytest.raises(ValueError,
                       match="rule 'bare' holds no '' in its substrings"):
        ScriptedBackend([Rule(response="never", name="bare")])


def test_rule_miss_text_names_the_call_number_and_closest_rule():
    backend = ScriptedBackend([
        Rule.on_substrings("a", "alpha", "beta", "gamma", name="one-of-three"),
        Rule.on_substrings("b", "alpha", "beta", name="two-of-two-needed"),
    ], label="unit")
    backend.complete(_req("alpha beta"))
    with pytest.raises(RuleMiss) as exc_info:
        backend.complete(_req("alpha   gamma\nhere"))
    assert str(exc_info.value) == (
        "[unit] no rule matched call #2 (closest: one-of-three); "
        "prompt starts: 'alpha gamma here'")


def _families(built: list[str]):
    """Three families whose build functions log their marker when run."""
    def family(marker, *rules):
        def build():
            built.append(marker)
            return list(rules)
        return marker, build
    return [
        family("[A]", Rule.on_substrings("a-x", "[A]", "x", name="a-x"),
               Rule.on_substrings("a-z", "[A]", "z", name="a-z")),
        family("[B]", Rule.on_substrings("b-x", "[B] x", name="b-x")),
        family("[C]", Rule.on_substrings("c", "[C]", "y", "w", name="c")),
    ]


def test_a_one_marker_prompt_builds_and_scans_only_its_family():
    built: list[str] = []
    backend = ScriptedBackend.from_families(_families(built))
    assert backend.rules == [] and built == []
    assert backend.complete(_req("[B] x")) == "b-x"
    assert backend.complete(_req("[B] x again")) == "b-x"
    assert backend.complete(_req("[A] x")) == "a-x"
    assert built == ["[B]", "[A]"]  # each family built once, on first use
    # `rules` holds the built families in family order, and reading it
    # builds nothing.
    assert [rule.name for rule in backend.rules] == ["a-x", "a-z", "b-x"]
    assert built == ["[B]", "[A]"]
    assert backend.calls_made == 3


def test_rules_is_read_from_the_built_families_on_every_read():
    backend = ScriptedBackend.from_families(_families([]))
    assert backend.rules == []
    assert backend.complete(_req("[B] x")) == "b-x"
    assert [rule.name for rule in backend.rules] == ["b-x"]
    with pytest.raises(RuleMiss):
        backend.complete(_req("no marker at all"))
    assert backend.rules == [rule for _, build in _families([])
                             for rule in build()]


def test_other_prompts_build_every_family_and_scan_in_order():
    built: list[str] = []
    backend = ScriptedBackend.from_families(_families(built))
    # Two markers: the families are walked in order, and the first hit
    # ends the walk before [C] is built.
    assert backend.complete(_req("[C] y and [A] x")) == "a-x"
    assert built == ["[A]"]
    backend = ScriptedBackend.from_families(_families([]), label="lazy")
    with pytest.raises(RuleMiss) as miss:
        backend.complete(_req("no marker at all, just y w"))
    assert str(miss.value) == (
        "[lazy] no rule matched call #1 (closest: c); "
        "prompt starts: 'no marker at all, just y w'")
    assert len(backend.rules) == 4


def test_a_miss_within_the_one_family_reports_the_closest_of_all_rules():
    backend = ScriptedBackend.from_families(_families([]), label="lazy")
    flat = ScriptedBackend([rule for _, build in _families([])
                            for rule in build()], label="lazy")
    for scripted_backend in (backend, flat):
        with pytest.raises(RuleMiss) as miss:
            scripted_backend.complete(_req("[A] y w"))
        assert str(miss.value) == (
            "[lazy] no rule matched call #1 (closest: c); "
            "prompt starts: '[A] y w'")
    assert backend.calls_made == 1


def test_a_family_rule_without_its_marker_is_refused_when_built():
    built: list[str] = []
    families = _families(built) + [
        ("[D]", lambda: [Rule.on_substrings("d", "[D]"),
                         Rule.on_substrings("stray", "y", name="stray")])]
    backend = ScriptedBackend.from_families(families, label="unit")
    assert backend.complete(_req("[A] x")) == "a-x"  # [D] is not built
    with pytest.raises(ValueError) as refused:
        backend.complete(_req("[D] y"))
    assert str(refused.value) == (
        "[unit] rule 'stray' holds no '[D]' in its substrings")


def test_a_rule_keyed_on_its_marker_alone_answers_its_whole_family():
    backend = ScriptedBackend.from_families([
        ("[A]", lambda: [Rule.on_substrings("a-x", "[A]", "x", name="a-x"),
                         Rule.on_substrings("a-any", "[A]", name="a-any")]),
        ("[B]", lambda: [Rule.on_substrings("b", "[B]", name="b")]),
    ])
    assert backend.complete(_req("[A] x")) == "a-x"
    assert backend.complete(_req("[A]")) == "a-any"
    assert backend.complete(_req("y [A] z")) == "a-any"
    with pytest.raises(RuleMiss):
        backend.complete(_req("[C] x"))


def test_a_key_holding_its_marker_and_more_text_is_still_required():
    backend = ScriptedBackend.from_families(
        [("[B]", lambda: [Rule.on_substrings("b-x", "[B] x", name="b-x")])],
        label="unit")
    assert backend.complete(_req("[B] x")) == "b-x"
    with pytest.raises(RuleMiss) as miss:
        backend.complete(_req("[B] y, then x"))
    assert "(closest: b-x)" in str(miss.value)


@pytest.mark.parametrize("prompt", ["[A] opens, then x",
                                    "first x, then [A] mid-prompt, then more",
                                    "x comes first and [A]"])
def test_a_marker_anywhere_in_the_prompt_answers_the_same_rule(prompt):
    built: list[str] = []
    backend = ScriptedBackend.from_families(_families(built))
    assert backend.complete(_req(prompt)) == "a-x"
    assert built == ["[A]"]


@pytest.mark.parametrize("prompt", ["[A] x, then [B] x", "[B] x, then [A] x"])
def test_a_two_marker_prompt_answers_from_the_earlier_family(prompt):
    # The marker nearer the prompt's end does not win: families are walked
    # in family order.
    built: list[str] = []
    backend = ScriptedBackend.from_families(_families(built))
    assert backend.complete(_req(prompt)) == "a-x"
    assert built == ["[A]"]


def test_a_rule_may_list_its_marker_anywhere_and_more_than_once():
    backend = ScriptedBackend.from_families([("[A]", lambda: [
        Rule("twice", ("x", "[A]", "[A]"), "twice"),
        Rule("last", ("y", "[A]"), "last"),
        Rule("inside", ("[A] z",), "inside")])], label="unit")
    assert backend.complete(_req("x [A]")) == "twice"
    assert backend.complete(_req("[A] y")) == "last"
    assert backend.complete(_req("[A] z")) == "inside"
    with pytest.raises(RuleMiss):
        backend.complete(_req("z [A]"))
    assert [rule.name for rule in backend.rules] == ["twice", "last", "inside"]


def _count_request_hashes(monkeypatch) -> list:
    """Record every request `goalact.backends.request_hash` is called with."""
    import goalact.backends as backends_module

    calls = []
    original = backends_module.request_hash

    def counting(request):
        calls.append(request)
        return original(request)

    monkeypatch.setattr(backends_module, "request_hash", counting)
    return calls


def test_request_hash_is_skipped_when_no_rule_has_a_prompt_hash(monkeypatch):
    calls = _count_request_hashes(monkeypatch)
    unhashed = ScriptedBackend([Rule.on_substrings("by-substring", "plain")])
    assert unhashed.complete(_req("plain")) == "by-substring"
    with pytest.raises(RuleMiss):
        unhashed.complete(_req("other"))
    assert calls == []


def test_request_hash_normalizes_whitespace():
    a = _req("hello   world", model="m")
    b = _req("hello\n world", model="m")
    c = _req("hello world!", model="m")
    assert request_hash(a) == request_hash(b)
    assert request_hash(a) != request_hash(c)


# Every recorded cassette is keyed by these bytes, so they are a fixed
# contract: these digests were computed by the word-splitting definition
# below before the byte-level normalizer replaced it.
@pytest.mark.parametrize("messages, model, digest", [
    (({"role": "system",
       "content": "  Tools:\n\n- get_record\t(x)\x0b\x0c\r\x1c\x1d"
                  "\x1e\x1f end  "},
      {"role": "user", "content": "caf\xe9\u3000  \x85ok\xa0!"}), "gpt-x",
     "893b3767f988c04a167dfaa012d06fe2c52f92040f8abac00e1cdeab733b4251"),
    (({"role": "user", "content": ""},), "m",
     "9de2f3f00be269fd5d461dba1eab3287e8ccd8363967a069f364d8380aea841f"),
    (({"role": "user", "content": " \t\n"},), "m",
     "9de2f3f00be269fd5d461dba1eab3287e8ccd8363967a069f364d8380aea841f"),
])
def test_request_hash_keeps_its_pinned_digests(messages, model, digest):
    request = CompletionRequest(messages=messages, model=model)
    assert request_hash(request) == digest


def _reference_request_hash(request: CompletionRequest) -> str:
    """The cassette key as first defined: content split into words."""
    parts = [request.model]
    for message in request.messages:
        parts.append(f"{message['role']}:"
                     f"{' '.join(message['content'].split())}")
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def test_request_hash_matches_the_word_splitting_definition():
    rng = random.Random(19)
    whitespace = [chr(c) for c in range(128) if chr(c).isspace()]
    assert len(whitespace) == 10
    other_space = ["\x85", "\xa0", "\u2028", "\u3000"]
    letters = list("abcXYZ:{}-\x00\x7f")
    for n in range(400):
        ascii_only = n % 2 == 0
        pool = whitespace + letters + ([] if ascii_only else other_space)
        texts = []
        for _ in range(rng.randint(1, 3)):
            chunks = [rng.choice(pool) * rng.choice((1, 1, 2, 5))
                      for _ in range(rng.randint(0, 40))]
            texts.append(rng.choice(("", " ", "\n\t")) + "".join(chunks)
                         + rng.choice(("", "  ", "\x1f\r")))
        request = CompletionRequest(
            messages=tuple({"role": rng.choice(("system", "user")),
                            "content": text} for text in texts),
            model=rng.choice(("m", "gpt-x")))
        assert request_hash(request) == _reference_request_hash(request), \
            request


def test_previews_show_the_prompt_with_its_whitespace_normalized(tmp_path):
    prompt = " ask\t\x1c now\u3000caf\xe9 \r\n" + "word  " * 40

    def preview(text: str, limit: int) -> str:
        return " ".join(text.split())[:limit]

    class Echo:
        def complete(self, request):
            return "answer"

    cassette = tmp_path / "previews.jsonl"
    CassetteRecorder(Echo(), cassette).complete(_req(prompt))
    entry = json.loads(cassette.read_text(encoding="utf-8"))
    assert entry["prompt_preview"] == preview(prompt, 80)
    with pytest.raises(CassetteMiss) as miss:
        CassetteReplayBackend(cassette).complete(_req(prompt + "?"))
    assert str(miss.value).endswith(f"prompt: {preview(prompt, 120)!r}")
    # A lone surrogate, which a JSON completion may carry into a prompt,
    # still gives a rule miss that shows it.
    odd = "odd \ud800  text"
    with pytest.raises(RuleMiss) as miss:
        ScriptedBackend([Rule.on_substrings("r", "never")]).complete(_req(odd))
    assert str(miss.value).endswith(f"prompt starts: {preview(odd, 160)!r}")


def test_every_logged_exchange_and_http_body_carries_temperature_zero():
    """A request holds no temperature: the HTTP client sends, and the
    trajectory logs, BENCHMARK_TEMPERATURE beside the same messages."""
    from goalact.generator import generate_khop_task
    from goalact.oracle import oracle_backend
    from goalact.orchestrator import METHODS, RunConfig, run_task

    task, env = generate_khop_task(seed=61, k=2)
    oracle = oracle_backend(task)
    bodies = []

    def transport(url, headers, body, timeout):
        doc = json.loads(body.decode("utf-8"))
        bodies.append(doc)
        return 200, _ok_body(oracle.complete(
            CompletionRequest(tuple(doc["messages"]), doc["model"])))

    live = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                           model="m", transport=transport,
                           sleeper=lambda s: None)
    calls = [call for method in METHODS for call in run_task(
        task, env, RunConfig(method=method), live).llm_calls]
    assert BENCHMARK_TEMPERATURE == 0.0
    assert len(calls) == len(bodies) > 0
    assert {doc["temperature"] for doc in bodies} == \
        {call.temperature for call in calls} == {0.0}
    assert [doc["messages"] for doc in bodies] == \
        [call.messages for call in calls]


# --- HTTP backend -----------------------------------------------------------------

def _ok_body(text: str) -> str:
    return json.dumps({"choices": [{"message": {"content": text}}]})


class _SequenceTransport:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, url, headers, body, timeout):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _client(transport, **kwargs) -> HttpChatBackend:
    sleeps: list[float] = kwargs.pop("sleeps", [])
    return HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                           model="m", transport=transport,
                           sleeper=sleeps.append, **kwargs)


def test_http_retries_429_then_succeeds():
    transport = _SequenceTransport([(429, "slow down"), (200, _ok_body("hi"))])
    sleeps: list[float] = []
    client = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                             model="m", transport=transport,
                             sleeper=sleeps.append)
    completion = client.complete(_req("x", model="m"))
    assert completion == "hi"
    assert completion.attempts == 2
    assert transport.calls == 2
    assert len(sleeps) == 1


def test_a_completion_after_one_429_carries_two_attempts(tmp_path):
    """The tries travel with the completion: a recorder returns it as its
    client did, and a completion that was never retried carries 1."""
    transport = _SequenceTransport([(429, "slow down"), (200, _ok_body("hi"))])
    recorder = CassetteRecorder(_client(transport), tmp_path / "c.jsonl")
    completion = recorder.complete(_req("x", model="m"))
    assert (completion, completion.attempts) == ("hi", 2)
    assert isinstance(completion, Completion)
    replayed = CassetteReplayBackend(tmp_path / "c.jsonl").complete(
        _req("x", model="m"))
    assert (replayed, getattr(replayed, "attempts", 1)) == ("hi", 1)
    assert Completion("hi").attempts == 1


def test_http_backoff_grows_exponentially():
    transport = _SequenceTransport([(500, ""), (503, ""), (200, _ok_body("ok"))])
    sleeps: list[float] = []
    client = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                             model="m", transport=transport,
                             sleeper=sleeps.append)
    client.complete(_req("x", model="m"))
    assert sleeps == [0.5, 1.0]


def test_http_gives_up_after_the_attempt_budget():
    transport = _SequenceTransport([(503, "")] * 4)
    client = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                             model="m", transport=transport,
                             sleeper=lambda s: None)
    with pytest.raises(BackendUnavailable, match="gave up after 4 attempts"):
        client.complete(_req("x", model="m"))
    assert transport.calls == 4


def test_http_auth_failures_never_retry():
    transport = _SequenceTransport([(401, "no")])
    client = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                             model="m", transport=transport,
                             sleeper=lambda s: None)
    with pytest.raises(AuthFailure):
        client.complete(_req("x", model="m"))
    assert transport.calls == 1


def test_http_retries_connection_errors():
    transport = _SequenceTransport([ConnectionError("reset"),
                                    (200, _ok_body("back"))])
    client = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                             model="m", transport=transport,
                             sleeper=lambda s: None)
    assert client.complete(_req("x", model="m")) == "back"


def test_http_attempt_counts_stay_with_their_thread():
    """One client shared by `--jobs` workers logs each call's own tries."""
    from goalact.orchestrator import RecordingBackend
    from goalact.plan import Trajectory

    tries = threading.local()

    def transport(url, headers, body, timeout):
        # The prompt names how many tries the request needs to succeed.
        wanted = int(json.loads(body)["messages"][0]["content"])
        tries.n = getattr(tries, "n", 0) + 1
        if tries.n < wanted:
            return 503, ""
        tries.n = 0
        return 200, _ok_body("ok")

    client = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                             model="m", transport=transport,
                             sleeper=lambda s: None)
    logs: list[tuple[int, Trajectory]] = []

    def worker(wanted: int) -> None:
        trajectory = Trajectory(task_id=f"t{wanted}", method="ReAct")
        recorder = RecordingBackend(client, trajectory, "m")
        for _ in range(300):
            recorder.ask("planning", str(wanted))
        logs.append((wanted, trajectory))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i % 4 + 1,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(logs) == 8
    for wanted, trajectory in logs:
        assert [call.attempts for call in trajectory.llm_calls] == \
            [wanted] * 300


def _race(worker, threads: int = 8) -> None:
    """Run `worker(i)` on 8 threads released together at a 1 us switch
    interval; every thread must finish within a minute."""
    start = threading.Barrier(threads)

    def run(i: int) -> None:
        start.wait()
        worker(i)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in pool)


def test_http_unparseable_completion_bodies_are_backend_faults():
    for body in ("not json", "[" * 100000 + "]" * 100000,
                 '{"a":' * 100000, json.dumps({"choices": []})):
        client = _client(_SequenceTransport([(200, body)]))
        with pytest.raises(BackendUnavailable, match="unparseable completion"):
            client.complete(_req("x", model="m"))


@pytest.mark.parametrize("body", [
    '{"choices": [{"message": {"content": "ok"}}], "id": %s}' % ("1" * 5000),
    _ok_body("ok \ud800"),
    json.dumps({"choices": [{"message": {"content": None}}]}),
], ids=["over-long-integer", "lone-surrogate", "null-content"])
def test_http_content_a_run_cannot_use_is_a_backend_fault(body):
    """A body past `int()`'s digit limit is malformed; content that UTF-8
    cannot encode, or no string at all, could be neither logged nor
    recorded."""
    client = _client(_SequenceTransport([(200, body)]))
    with pytest.raises(BackendUnavailable, match="unparseable completion"):
        client.complete(_req("x", model="m"))


class _Response:
    """A 200 response whose `read()` returns, or raises, `body`."""

    status = 200

    def __init__(self, body):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self):
        if isinstance(self.body, Exception):
            raise self.body
        return self.body


def test_an_http_body_that_is_not_utf8_is_a_backend_fault(monkeypatch):
    body = b'{"choices": [{"message": {"content": "ok \xff"}}]}'
    opened = []

    def urlopen(request, timeout):
        opened.append(request)
        return _Response(body)

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    client = _client(None)  # the default, urllib transport
    with pytest.raises(BackendUnavailable, match="not UTF-8"):
        client.complete(_req("x", model="m"))
    assert len(opened) == 1


@pytest.mark.parametrize("cut_reads", [4, 1])
def test_an_http_body_cut_short_is_retried(monkeypatch, cut_reads):
    bodies = [http.client.IncompleteRead(b'{"choi', 40)] * cut_reads \
        + [_ok_body("hi").encode()]
    monkeypatch.setattr("urllib.request.urlopen",
                        lambda request, timeout: _Response(bodies.pop(0)))
    client = _client(None)  # the default, urllib transport
    if cut_reads < backends.MAX_ATTEMPTS:
        completion = client.complete(_req("x", model="m"))
        assert completion == "hi"
        assert completion.attempts == cut_reads + 1
    else:
        with pytest.raises(BackendUnavailable,
                           match=r"gave up after 4 attempts .*IncompleteRead"):
            client.complete(_req("x", model="m"))
        assert len(bodies) == 1  # four reads cut short, the fifth not made


# --- cassettes ----------------------------------------------------------------------

def test_a_completion_utf8_cannot_encode_is_neither_recorded_nor_kept(
        tmp_path):
    class LoneSurrogate:
        calls = 0

        def complete(self, request):
            self.calls += 1
            return json.loads('"ok \\ud800"')

    inner, cassette = LoneSurrogate(), tmp_path / "cassette.jsonl"
    recorder = CassetteRecorder(inner, cassette)
    for _ in range(2):
        with pytest.raises(BackendUnavailable, match="cannot record"):
            recorder.complete(_req("ask"))
    assert inner.calls == 2
    assert recorder.entries == {}
    assert not cassette.exists()


def test_record_then_replay_without_network(tmp_path):
    cassette = tmp_path / "session.jsonl"
    transport = _SequenceTransport([(200, _ok_body(f"answer-{i}"))
                                    for i in range(5)])
    live = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                           model="m", transport=transport,
                           sleeper=lambda s: None)
    recorder = CassetteRecorder(live, cassette)
    prompts = [f"question {i}" for i in range(5)]
    recorded = [recorder.complete(_req(p, model="m")) for p in prompts]
    assert transport.calls == 5

    replay = CassetteReplayBackend(cassette)
    replayed = [replay.complete(_req(p, model="m")) for p in prompts]
    assert replayed == recorded
    assert transport.calls == 5  # nothing new went over the wire


def test_replay_misses_on_changed_prompt(tmp_path):
    cassette = tmp_path / "session.jsonl"
    live = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                           model="m",
                           transport=_SequenceTransport([(200, _ok_body("a"))]),
                           sleeper=lambda s: None)
    CassetteRecorder(live, cassette).complete(_req("original", model="m"))
    replay = CassetteReplayBackend(cassette)
    with pytest.raises(CassetteMiss):
        replay.complete(_req("changed", model="m"))


def test_a_missing_cassette_is_refused_at_load(tmp_path):
    missing = tmp_path / "missing.jsonl"
    with pytest.raises(FatalError) as refused:
        CassetteReplayBackend(missing)
    assert str(refused.value) == f"cassette not found: {missing}"


def test_empty_cassette_misses_immediately(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    replay = CassetteReplayBackend(empty)
    with pytest.raises(CassetteMiss, match=r"\(0 entries loaded\)"):
        replay.complete(_req("anything"))


def test_recorder_writes_each_request_once_under_threads(tmp_path):
    cassette = tmp_path / "shared.jsonl"

    class Echo:
        def complete(self, request):
            return request.rendered().upper()

    recorder = CassetteRecorder(Echo(), cassette)

    def worker(i: int) -> None:
        for n in range(400):
            recorder.complete(_req(f"request {n}"))

    _race(worker)
    keys = [json.loads(line)["key"]
            for line in cassette.read_text(encoding="utf-8").splitlines()]
    assert len(keys) == len(set(keys)) == 400
    replay = CassetteReplayBackend(cassette)
    assert replay.complete(_req("request 7")) == "REQUEST 7"


def test_a_second_record_session_appends_only_the_requests_it_lacks(
        tmp_path, monkeypatch):
    """A cassette keeps the first response recorded for a request, and a
    later `record:` session answers that request from it, as does the
    session that recorded it, fresh cassette or not."""
    from goalact.suite import resolve_backend_factory

    cassette = tmp_path / "c.jsonl"
    asked = []

    class Answer:
        def __init__(self, text):
            self.text = text

        def complete(self, request):
            asked.append(request.rendered())
            return f"{self.text} {request.rendered()}"

    def session(text, prompts):
        monkeypatch.setattr("goalact.suite._http_backend_from_env",
                            lambda: Answer(text))  # in place of HTTP
        backend = resolve_backend_factory(f"record:{cassette}")(None)
        return [backend.complete(_req(prompt)) for prompt in prompts]

    assert session("first", ["a", "a", "b"]) == \
        ["first a", "first a", "first b"]
    first = cassette.read_bytes()
    assert session("second", ["a", "b"]) == ["first a", "first b"]
    assert cassette.read_bytes() == first
    assert session("third", ["b", "c", "c"]) == \
        ["first b", "third c", "third c"]
    assert cassette.read_bytes().startswith(first)
    assert asked == ["a", "b", "c"]  # the live backend sees each key once
    replay = CassetteReplayBackend(cassette)
    assert [replay.complete(_req(p)) for p in "abc"] == \
        ["first a", "first b", "third c"]
    assert len(cassette.read_bytes().splitlines()) == 3


def test_cassette_replays_responses_holding_unicode_line_breaks(tmp_path):
    # The recorder writes these characters unescaped; only "\n" ends a line.
    cassette = tmp_path / "breaks.jsonl"

    class Echo:
        def complete(self, request):
            return f"{request.rendered()}\u2028next\x85line\u2029end"

    CassetteRecorder(Echo(), cassette).complete(_req("ask"))
    assert CassetteReplayBackend(cassette).complete(_req("ask")) == \
        "ask\u2028next\x85line\u2029end"


def test_recorded_run_replays_to_an_identical_trajectory(tmp_path):
    """Record a live run once, then replay it entirely from the cassette."""
    from goalact.generator import generate_khop_task
    from goalact.oracle import oracle_backend
    from goalact.orchestrator import RunConfig, run_task
    from goalact.plan import encode_trajectory

    task, env = generate_khop_task(seed=61, k=2)
    oracle = oracle_backend(task)

    class _OracleTransport:
        """Fake chat-completions endpoint answered by the oracle rules."""

        def __init__(self):
            self.calls = 0

        def __call__(self, url, headers, body, timeout):
            self.calls += 1
            doc = json.loads(body.decode("utf-8"))
            return 200, _ok_body(oracle.complete(
                CompletionRequest(tuple(doc["messages"]), doc["model"])))

    transport = _OracleTransport()
    live = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                           model="m", transport=transport,
                           sleeper=lambda s: None)
    cassette = tmp_path / "run.jsonl"
    recorded = run_task(task, env, RunConfig(method="GoalAct"),
                        CassetteRecorder(live, cassette))
    live_calls = transport.calls
    assert live_calls > 0

    replay = CassetteReplayBackend(cassette)
    # Each logged exchange hashes to the key its response is recorded under.
    assert replay.entries == {request_hash(call): call.response
                              for call in recorded.llm_calls}
    replayed = run_task(task, env, RunConfig(method="GoalAct"), replay)
    assert transport.calls == live_calls  # nothing new went over the wire
    assert encode_trajectory(replayed) == encode_trajectory(recorded)


def test_record_mode_logs_the_http_retry_count(tmp_path):
    from goalact.generator import generate_khop_task
    from goalact.oracle import oracle_backend
    from goalact.orchestrator import RunConfig, run_task

    task, env = generate_khop_task(seed=63, k=1)
    oracle = oracle_backend(task)

    def oracle_transport(outages: int):
        """A chat endpoint that answers 503 `outages` times, then the oracle."""
        def transport(url, headers, body, timeout):
            nonlocal outages
            if outages > 0:
                outages -= 1
                return 503, "busy"
            doc = json.loads(body.decode("utf-8"))
            return 200, _ok_body(oracle.complete(
                CompletionRequest(tuple(doc["messages"]), doc["model"])))
        return transport

    def record(outages: int, cassette):
        live = HttpChatBackend(endpoint="https://example.test/v1", api_key="k",
                               model="m", transport=oracle_transport(outages),
                               sleeper=lambda s: None)
        return run_task(task, env, RunConfig(method="GoalAct"),
                        CassetteRecorder(live, cassette))

    retried = record(1, tmp_path / "retried.jsonl")
    clean = record(0, tmp_path / "clean.jsonl")
    assert [call.attempts for call in retried.llm_calls] == \
        [2] + [1] * (len(retried.llm_calls) - 1)
    assert all(call.attempts == 1 for call in clean.llm_calls)
    assert CassetteReplayBackend(tmp_path / "retried.jsonl").entries == {
        request_hash(call): call.response for call in retried.llm_calls}
    assert (tmp_path / "retried.jsonl").read_bytes() == \
        (tmp_path / "clean.jsonl").read_bytes()


def test_every_logged_exchange_hashes_to_its_cassette_entry(tmp_path):
    """A suite of every category and method, answered by each task's oracle
    through one recorder: each exchange its logs hold hashes to a cassette
    key that holds the exchange's response."""
    from goalact.generator import CATEGORY_ORDER, generate_task
    from goalact.oracle import oracle_backend
    from goalact.orchestrator import METHODS, RunConfig
    from goalact.plan import read_trajectories
    from goalact.suite import run_suite

    recorder = CassetteRecorder(None, tmp_path / "suite.jsonl")

    def factory(task):
        recorder.inner = oracle_backend(task)
        return recorder

    pairs = [generate_task(category, 7) for category in CATEGORY_ORDER]
    run_suite(pairs, list(METHODS), RunConfig(), factory,
              out_dir=tmp_path / "run")
    entries = CassetteReplayBackend(tmp_path / "suite.jsonl").entries
    calls = [call for method in METHODS for trajectory in read_trajectories(
        tmp_path / "run" / "trajectories" / f"{method}.jsonl")
        for call in trajectory.llm_calls]
    assert len(calls) > len(pairs) * len(METHODS)
    for call in calls:
        assert entries[request_hash(call)] == call.response, call.purpose


def test_two_scripted_runs_yield_byte_identical_trajectories():
    from goalact.generator import generate_writing_task
    from goalact.oracle import oracle_backend
    from goalact.orchestrator import RunConfig, run_task
    from goalact.plan import encode_trajectory

    task, env = generate_writing_task(seed=62)
    first = run_task(task, env, RunConfig(method="GoalAct"),
                     oracle_backend(task))
    second = run_task(task, env, RunConfig(method="GoalAct"),
                      oracle_backend(task))
    assert encode_trajectory(first) == encode_trajectory(second)


# --- misc -----------------------------------------------------------------------------

def test_rules_file_round_trip(tmp_path):
    rules = [
        Rule.on_substrings("r1", "alpha", "beta", name="pair"),
        Rule.on_substrings("r2", "gamma"),
    ]
    path = tmp_path / "rules.jsonl"
    save_rules_file(rules, path)
    assert path.read_text(encoding="utf-8").splitlines()[1] == \
        '{"response": "r2", "substrings": ["gamma"], "name": ""}'
    assert load_rules_file(path) == rules
    # A line may leave out its name, which then reads as "".
    path.write_text('{"substrings": ["gamma"], "response": "r2"}\n',
                    encoding="utf-8")
    assert load_rules_file(path) == rules[1:]


@pytest.mark.parametrize("line", [
    '{"response": "r", "ordinal": 1}',
    '{"response": "r", "prompt_hash": "ab"}',
    '{"response": "r", "substring": "alpha"}',
    '{"response": "r", "substrings": ["alpha"], "ordinal": 1}',
    '["r", ["alpha"]]',
    '"r"',
    'not json',
    '[' * 100000,
    '{"substrings": ["alpha"]}',
    '{"response": "r"}',
    '{"response": "r", "substrings": []}',
    '{"response": "r", "substrings": "alpha"}',
    '{"response": "r", "substrings": [1]}',
    '{"response": 1, "substrings": ["alpha"]}',
    '{"response": "r", "substrings": ["alpha"], "name": 1}',
])
def test_rules_file_loader_refuses_old_keys_and_malformed_lines(tmp_path,
                                                               line):
    path = tmp_path / "rules.jsonl"
    path.write_text('{"response": "ok", "substrings": ["a"]}\n\n'
                    + line + "\n", encoding="utf-8")
    with pytest.raises(FatalError) as refused:
        load_rules_file(path)
    assert str(refused.value).startswith(f"{path}:3: ")


def test_strip_code_fences_variants():
    body = '[{"a": 1}]'
    assert strip_code_fences(f"```json\n{body}\n```") == body
    assert strip_code_fences(f"```\n{body}\n```") == body
    assert strip_code_fences(body) == body
    assert strip_code_fences(f"  {body}  ") == body


@pytest.mark.parametrize("text", [
    '"x \\ud800"',
    '{"a": ["ok", {"b": "\\uDFFF"}]}',
    '{"\\ud800": 1}',
    '["\\ude00\\ud83d"]',
    '"é \ud800"',
], ids=["escape", "nested-upper-case", "key", "reversed-pair", "raw"])
def test_decode_json_refuses_a_lone_surrogate(text):
    with pytest.raises(json.JSONDecodeError, match="lone surrogate"):
        decode_json(text)


def test_decode_json_keeps_what_utf8_can_encode():
    assert decode_json('"\\ud83d\\ude00"') == "\U0001F600"
    assert decode_json('"é"') == "é"
    assert decode_json('"\\\\ud800"') == "\\ud800"
    assert decode_json('{"a": ["\\u00e9"]}') == {"a": ["é"]}
