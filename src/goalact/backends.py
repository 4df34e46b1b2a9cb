"""Completion providers behind one `complete(request) -> str` call: the
scripted rule walk of tests and oracle runs (it never hashes a request), an
HTTP chat-completions client with backoff on transient failures, and cassette
record/replay wrappers keyed by a whitespace-normalized request hash.  A
request's messages are the `{"role", "content"}` dicts a trajectory logs and
the HTTP client sends, so a logged exchange hashes to its request's cassette
key; every request is sent and logged at BENCHMARK_TEMPERATURE."""

from __future__ import annotations

import hashlib
import http.client
import json
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .errors import (AuthFailure, BackendUnavailable, CassetteMiss, FatalError,
                     RuleMiss)
from .records import read_lines, record_from_dict, record_to_dict

BENCHMARK_TEMPERATURE = 0.0


@dataclass(frozen=True)
class CompletionRequest:
    """One model call: its model and its `{"role", "content"}` messages."""

    messages: tuple[dict[str, str], ...]
    model: str = "scripted"

    def rendered(self) -> str:
        messages = self.messages
        if len(messages) == 1:
            return messages[0]["content"]
        return "\n".join(m["content"] for m in messages)


def user_request(content: str, model: str = "scripted") -> CompletionRequest:
    return CompletionRequest(({"role": "user", "content": content},), model)


class Completion(str):
    """A completion's text and the tries it took: 1 unless a backend that
    retries says otherwise."""

    attempts = 1


# Each byte other than the space that `str.split()` counts as whitespace in
# ASCII text, mapped to a space.
_ASCII_WHITESPACE = bytes.maketrans(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f", b" " * 9)
_SPACE_RUNS = re.compile(rb"  +")


def _normalized(text: str) -> bytes:
    """`" ".join(text.split())` as UTF-8: each whitespace run one space, the
    ends stripped.  ASCII text takes one pass over its bytes instead of a
    list of words.  Lone surrogates pass through, so a preview of any prompt
    can be built."""
    if text.isascii():
        spaced = text.encode("ascii").translate(_ASCII_WHITESPACE)
        return _SPACE_RUNS.sub(b" ", spaced).strip(b" ")
    return " ".join(text.split()).encode("utf-8", "surrogatepass")


def _preview(text: str, limit: int) -> str:
    """The first `limit` characters of `text`, whitespace normalized."""
    return _normalized(text).decode("utf-8", "surrogatepass")[:limit]


def request_hash(request: CompletionRequest) -> str:
    """The cassette key, stable across whitespace: sha256 over the model,
    then per message `\\x1f`, the role, `:` and the normalized content."""
    digest = hashlib.sha256(request.model.encode("utf-8"))
    for message in request.messages:
        digest.update(b"\x1f" + message["role"].encode("utf-8") + b":"
                      + _normalized(message["content"]))
    return digest.hexdigest()


# --- scripted backend -----------------------------------------------------------

@dataclass(slots=True)
class Rule:
    """A response and the substrings that must all occur in the prompt."""

    response: str
    substrings: tuple[str, ...] = ()
    name: str = ""

    @staticmethod
    def on_substrings(response: str, *keys: str, name: str = "") -> "Rule":
        return Rule(response=response, substrings=tuple(keys), name=name)


# A rule family: a prompt-type marker and the build of the rules keyed on it.
RuleFamily = tuple[str, Callable[[], Sequence[Rule]]]


class ScriptedBackend:
    """Deterministic rule-driven stand-in for an LLM.

    Rules come as (marker, build) families, each built on first use;
    `ScriptedBackend(rules)` is the one family with marker "", built at once.
    A prompt tries the rules of each family whose marker it holds, in family
    order, then rule order; the first rule whose substrings all occur wins.
    A build refuses (ValueError) a rule with no substring holding its marker,
    so the walk answers as an in-order scan of all rules would.  A family is
    built in one pass and kept once, as its rules, each paired with its
    substrings less one equal to the marker (a tuple test), or else checked
    to hold the marker inside a substring: the walk enters a family only
    when the prompt holds its marker, so a substring equal to the marker is
    not tested again; one that merely contains it is.  The walk searches
    each marker and substring from the prompt's end (`rfind`, which answers
    as `in` does): most prompts hold their marker near their end, and a
    round's key is the value its newest lines first show, so a hit is found
    after a short search, while a miss reads the whole prompt either way.
    A miss builds every family and raises RuleMiss naming the closest rule.
    `rules` lists the rules built so far, in family order, flattened from
    that store on each read; reading it builds nothing."""

    def __init__(self, rules: Sequence[Rule], label: str = "scripted"):
        self._start({"": lambda: rules}, label)
        self._family("")

    @classmethod
    def from_families(cls, families: Sequence[RuleFamily],
                      label: str = "scripted") -> "ScriptedBackend":
        """A backend over (marker, build) families, in matching order."""
        backend = cls.__new__(cls)
        backend._start(dict(families), label)
        return backend

    def _start(self, families: dict[str, Callable[[], Sequence[Rule]]],
               label: str) -> None:
        self.label = label
        self.calls_made = 0
        self._families = families
        self._built: dict[str, list[tuple[tuple[str, ...], Rule]]] = {}

    @property
    def rules(self) -> list[Rule]:
        """The rules built so far, in family order."""
        return [rule for marker in self._families
                for _, rule in self._built.get(marker, ())]

    def _family(self, marker: str) -> list[tuple[tuple[str, ...], Rule]]:
        built = self._built.get(marker)
        if built is None:
            built = []
            for i, rule in enumerate(self._families[marker]()):
                keys = rule.substrings
                if marker in keys:
                    at = keys.index(marker)
                    keys = keys[:at] + keys[at + 1:]
                elif not any(marker in key for key in keys):
                    raise ValueError(f"[{self.label}] rule {rule.name or i!r} "
                                     f"holds no {marker!r} in its substrings")
                built.append((keys, rule))
            self._built[marker] = built
        return built

    def complete(self, request: CompletionRequest) -> str:
        self.calls_made += 1
        prompt = request.rendered()
        for marker in self._families:
            if prompt.rfind(marker) >= 0:
                for keys, rule in self._family(marker):
                    for key in keys:
                        if prompt.rfind(key) < 0:
                            break
                    else:
                        return rule.response
        for marker in self._families:
            self._family(marker)
        raise RuleMiss(self._miss_message(prompt))

    def _miss_message(self, prompt: str) -> str:
        best_name, best_score = "<none>", -1.0
        for i, rule in enumerate(self.rules):
            hits = sum(1 for key in rule.substrings if key in prompt)
            score = hits / len(rule.substrings)
            if score > best_score:
                best_name, best_score = rule.name or f"rule#{i}", score
        return (f"[{self.label}] no rule matched call #{self.calls_made} "
                f"(closest: {best_name}); prompt starts: "
                f"{_preview(prompt, 160)!r}")


# --- HTTP chat-completions backend ----------------------------------------------

RETRYABLE_STATUS = {429, 500, 502, 503, 504}
AUTH_STATUS = {401, 403}
MAX_ATTEMPTS = 4
BACKOFF_BASE_S = 0.5

# transport(url, headers, body_bytes, timeout) -> (status, body_text)
Transport = Callable[[str, dict[str, str], bytes, float], tuple[int, str]]


def _urllib_transport(url: str, headers: dict[str, str], body: bytes,
                      timeout: float) -> tuple[int, str]:
    """(status, body); a body cut short or late is a ConnectionError."""
    req = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        try:
            resp = urllib.request.urlopen(req, timeout=timeout)
        except urllib.error.HTTPError as exc:  # an error status and its body
            resp = exc
        with resp:
            status, raw = resp.status, resp.read()
    except (urllib.error.URLError, TimeoutError, OSError,
            http.client.HTTPException) as exc:
        raise ConnectionError(str(exc)) from exc
    if isinstance(resp, urllib.error.HTTPError):
        return status, raw.decode("utf-8", errors="replace")
    try:
        return status, raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BackendUnavailable(f"response body is not UTF-8: {exc}") from exc


class HttpChatBackend:
    """Chat-completions client with bounded exponential backoff.

    Retries timeouts, connection faults (a body cut short or late, whatever
    the status, among them), 429, and 5xx up to MAX_ATTEMPTS total tries,
    sleeping BACKOFF_BASE_S, then twice as long, between them; 401/403 fail
    immediately.  A completion carries the try that returned it, so the
    client holds only its settings and one may serve any number of threads.
    """

    def __init__(self, endpoint: str, api_key: str, model: str,
                 timeout: float = 60.0, transport: Optional[Transport] = None,
                 sleeper: Callable[[float], None] = time.sleep):
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key
        self.model = model
        self.timeout = timeout
        self.transport = transport or _urllib_transport
        self.sleeper = sleeper

    def complete(self, request: CompletionRequest) -> Completion:
        body = json.dumps({
            "model": request.model if request.model != "scripted" else self.model,
            "messages": request.messages,
            "temperature": BENCHMARK_TEMPERATURE,
        }).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {self.api_key}",
        }
        url = f"{self.endpoint}/chat/completions"
        last_error = "no attempt made"
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                status, text = self.transport(url, headers, body, self.timeout)
            except ConnectionError as exc:
                last_error = f"connection error: {exc}"
                status = None
            else:
                if status in AUTH_STATUS:
                    raise AuthFailure(f"endpoint returned HTTP {status}")
                if status not in RETRYABLE_STATUS:
                    completion = Completion(self._extract_content(text, status))
                    completion.attempts = attempt
                    return completion
                last_error = f"HTTP {status}"
            if attempt < MAX_ATTEMPTS:
                self.sleeper(BACKOFF_BASE_S * (2 ** (attempt - 1)))
        raise BackendUnavailable(
            f"gave up after {MAX_ATTEMPTS} attempts ({last_error})")

    @staticmethod
    def _extract_content(text: str, status: int) -> str:
        try:
            content = decode_json(text)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}")
            return content
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable(
                f"HTTP {status} with unparseable completion body: {exc}") from exc


# --- cassette record / replay ----------------------------------------------------

@dataclass(slots=True)
class CassetteEntry:
    """A cassette line: a request's key, the response recorded for it and
    a preview of its prompt, which replay reads as "" when left out."""

    key: str
    response: str
    prompt_preview: str


class CassetteRecorder:
    """Wraps a live backend and persists (request-hash -> response) pairs."""

    def __init__(self, inner: Any, path: Path):
        self.inner = inner
        self.path = Path(path)
        self.entries: dict[str, str] = {}
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> str:
        """The inner backend's completion as it returned it; one UTF-8 cannot
        encode raises BackendUnavailable, and is neither written nor kept."""
        response = self.inner.complete(request)
        key = request_hash(request)
        with self._lock:
            if key not in self.entries:
                try:
                    line = (json.dumps(record_to_dict(CassetteEntry(
                        key, response, _preview(request.rendered(), 80))),
                        ensure_ascii=False) + "\n").encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise BackendUnavailable(
                        f"cannot record the completion: {exc}") from exc
                with open(self.path, "ab") as handle:
                    handle.write(line)
                self.entries[key] = response
        return response


class CassetteReplayBackend:
    """Answers from a recorded cassette; a request it lacks goes to
    `fallback` when there is one, else is a hard error.  A missing cassette
    is refused, unless there is a fallback: it then starts empty."""

    def __init__(self, path: Path, fallback: Any = None):
        self.path, self.fallback = Path(path), fallback
        exists = self.path.exists()
        if not exists and fallback is None:
            raise FatalError(f"cassette not found: {self.path}")
        lines = read_lines(self.path, lambda doc: record_from_dict(
            CassetteEntry, {"prompt_preview": "", **doc})) if exists else ()
        self.entries: dict[str, str] = {
            entry.key: entry.response for entry in lines}

    def complete(self, request: CompletionRequest) -> str:
        key = request_hash(request)
        if key not in self.entries:
            if self.fallback is not None:
                return self.fallback.complete(request)
            raise CassetteMiss(
                f"no cassette entry for request {key[:12]} "
                f"({len(self.entries)} entries loaded); prompt: "
                f"{_preview(request.rendered(), 120)!r}")
        return self.entries[key]


def _rule_from_dict(doc: Any) -> Rule:
    rule = record_from_dict(Rule, {"name": "", **doc})
    if not rule.substrings:
        raise ValueError("a rule's substrings are a non-empty array")
    return rule


def load_rules_file(path: Path) -> list[Rule]:
    """Scripted-backend fixture format: one `Rule` document per line, its
    `substrings` not empty and its `name` "" when left out.  Any other line
    raises FatalError naming the file and line."""
    return list(read_lines(path, _rule_from_dict))


def save_rules_file(rules: Sequence[Rule], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rule in rules:
            handle.write(json.dumps(record_to_dict(rule), ensure_ascii=False)
                         + "\n")


def decode_json(text: str) -> Any:
    """`json.loads` for model output: a document nested too deeply for the
    decoder, holding an integer longer than `int()` converts, or holding a
    string with a lone surrogate (a JSON `\\ud800` escape), which UTF-8
    cannot encode, raises `json.JSONDecodeError` like any other malformed
    one.  Only a text that is not ASCII or holds a `\\ud` escape can decode
    to a surrogate, so no other text is searched for one."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise json.JSONDecodeError("document nests too deeply", text, 0)
    except ValueError:  # the integer string conversion limit
        raise json.JSONDecodeError("number has too many digits", text, 0)
    if (not text.isascii() or "\\ud" in text or "\\uD" in text) \
            and _holds_surrogate(doc):
        raise json.JSONDecodeError("string holds a lone surrogate", text, 0)
    return doc


SURROGATE = re.compile(r"[\ud800-\udfff]")


def _holds_surrogate(doc: Any) -> bool:
    """Whether a key or string anywhere in the decoded `doc` holds a
    surrogate code point, walked with an explicit stack."""
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            if SURROGATE.search(value):
                return True
        elif isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return False

