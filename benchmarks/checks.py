"""Correctness checks computed without goalact code.

Expected answers come from walking the fixture tables as stored on disk, not
from the generator's recipe, its key_answers or goalact.evaluation:

  * k-hop: follow the chain named in the query from its start key.
  * aggregation: sum the matching rows by brute force.
  * writing: resolve the parties, counsel and statutes the brief must cite.

Final answers are scored with an independent NFC substring check.  Only the
standard library is used, so a fault in goalact cannot hide itself here.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional

STRICT_METHODS = ("GoalAct", "PlanAndSolve")

_KHOP_START = re.compile(r'Start from the "([^"]+)" record whose (\w+) is "([^"]+)"\.')
_KHOP_FOLLOW = re.compile(r'Follow its (\w+) field to the matching record in "([^"]+)"\.')
_KHOP_ASK = re.compile(r"What is the (\w+) of the final record\?")
_AGG = re.compile(r'Across the "([^"]+)" table, compute the total of the (\w+) '
                  r"field over every invoice whose (\w+) is (\S+?)\. Report")
_WRITING_PARTIES = re.compile(r'The plaintiff "([^"]+)" alleges that the '
                              r'defendant "([^"]+)" failed')
_WRITING_TOPIC = re.compile(r'filter the "statutes" table for the topic "([^"]+)"')


class CheckFailure(Exception):
    pass


def loose_equal(row_value: Any, wanted: Any) -> bool:
    return row_value == wanted or str(row_value) == str(wanted)


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def own_score(expected: Iterable[str], answer: Optional[str]) -> float:
    keywords = set(expected)
    text = nfc(answer or "")
    return sum(1 for k in keywords if nfc(k) in text) / len(keywords)


@dataclass
class TaskWorld:
    task_id: str
    category: str
    query: str
    tables: dict[str, list[dict[str, Any]]]

    def scan(self, table: str, field_name: str, value: Any) -> list[dict]:
        return [row for row in self.tables[table]
                if loose_equal(row.get(field_name), value)]

    def first(self, table: str, field_name: str, value: Any) -> dict:
        rows = self.scan(table, field_name, value)
        if not rows:
            raise CheckFailure(f"{self.task_id}: no {table} row with "
                               f"{field_name} = {value!r}")
        return rows[0]


def load_worlds(fixtures: Path) -> dict[str, TaskWorld]:
    worlds = {}
    for task_path in sorted((fixtures / "tasks").glob("*.json")):
        doc = json.loads(task_path.read_text(encoding="utf-8"))
        tables = {}
        for name in doc["table_files"]:
            table = json.loads((fixtures / "tables" / name)
                               .read_text(encoding="utf-8"))
            tables[table["name"]] = table["rows"]
        worlds[doc["id"]] = TaskWorld(doc["id"], doc["category"], doc["query"],
                                      tables)
    return worlds


def _render(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CheckFailure(f"non-integer value {value!r} in an expected answer")
    return str(value)


def expected_answers(world: TaskWorld) -> frozenset[str]:
    """Every keyword a correct final answer must contain, from the tables."""
    query = world.query
    start = _KHOP_START.search(query)
    if start:
        table, field_name, value = start.groups()
        row = world.first(table, field_name, value)
        for link, next_table in _KHOP_FOLLOW.findall(query):
            row = world.first(next_table, link, row[link])
        ask = _KHOP_ASK.search(query)
        if ask is None:
            raise CheckFailure(f"{world.task_id}: k-hop query names no answer field")
        answer = row[ask.group(1)]
        return frozenset([answer if isinstance(answer, str) else _render(answer)])
    agg = _AGG.search(query)
    if agg:
        table, sum_field, filter_field, value = agg.groups()
        total = 0
        for row in world.tables[table]:
            if loose_equal(row[filter_field], value):
                total += row[sum_field]
        return frozenset([_render(total)])
    parties = _WRITING_PARTIES.search(query)
    topic = _WRITING_TOPIC.search(query)
    if parties and topic:
        plaintiff, defendant = parties.groups()
        party = world.first("parties", "legal_name", defendant)
        counsel = world.first("lawyers", "lawyer_id", party["counsel_id"])
        statutes = world.scan("statutes", "topic", topic.group(1))
        if not statutes:
            raise CheckFailure(f"{world.task_id}: no statute for the topic")
        return frozenset([plaintiff, defendant, party["registration_code"],
                          counsel["full_name"], counsel["bar_number"],
                          *(row["statute_id"] for row in statutes)])
    raise CheckFailure(f"{world.task_id}: query matches no known task shape")


def check_tool_call(world: TaskWorld, record: dict) -> Optional[str]:
    """A logged tool result must equal our own scan of the table."""
    args = record["arguments"]
    table, field_name, value = (args.get("table"), args.get("field"),
                                args.get("value"))
    if table not in world.tables or not world.tables[table] \
            or field_name not in world.tables[table][0]:
        return None if not record["ok"] else \
            f"tool {record['tool']} succeeded on unknown {table}.{field_name}"
    rows = world.scan(table, field_name, value)
    if record["tool"] == "get_record":
        expected = rows[:1]
        if not rows:
            return None if not record["ok"] else \
                f"get_record {table}.{field_name}={value!r} matched nothing " \
                "but reported rows"
    elif record["tool"] == "filter_records":
        expected = rows
    else:
        return f"unexpected tool {record['tool']!r} in the log"
    if not record["ok"]:
        return f"{record['tool']} {table}.{field_name}={value!r} failed " \
               f"({record['result']}) where {len(rows)} rows match"
    try:
        logged = json.loads(record["result"])
    except json.JSONDecodeError:
        return f"{record['tool']} result is not JSON: {record['result'][:80]!r}"
    if logged != expected:
        return f"{record['tool']} {table}.{field_name}={value!r} logged " \
               f"{len(logged)} rows that differ from the {len(expected)} scanned"
    return None


@dataclass
class RunCheck:
    """Outcome of checking one suite run directory."""

    task_runs: int = 0
    run_failures: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    suite_failures: list[str] = field(default_factory=list)
    prompt_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.run_failures and not self.suite_failures


def check_run_dir(run_dir: Path, worlds: dict[str, TaskWorld],
                  methods: Iterable[str]) -> RunCheck:
    result = RunCheck()
    expected = {}
    for task_id, world in worlds.items():
        try:
            expected[task_id] = expected_answers(world)
        except CheckFailure as exc:
            result.suite_failures.append(str(exc))
    scores: dict[str, dict[str, float]] = {}
    for method in methods:
        path = run_dir / "trajectories" / f"{method}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        method_scores = scores.setdefault(method, {})
        for line in lines:
            doc = json.loads(line)
            task_id = doc["task_id"]
            problems = []
            if doc["method"] != method:
                problems.append(f"logged under method {doc['method']!r}")
            if task_id not in expected:
                result.suite_failures.append(
                    f"{method}: task {task_id} has no expected answer")
                continue
            if task_id in method_scores:
                problems.append("task ran twice")
            if doc["termination_reason"] != "finish":
                problems.append(f"ended in {doc['termination_reason']!r}")
            score = own_score(expected[task_id], doc["final_answer"])
            method_scores[task_id] = score
            if method in STRICT_METHODS and score != 1.0:
                problems.append(f"scored {score:.4f}, expected 1.0")
            for record in doc["tool_calls"]:
                problem = check_tool_call(worlds[task_id], record)
                if problem:
                    problems.append(problem)
            for call in doc["llm_calls"]:
                result.prompt_bytes += sum(len(m["content"].encode("utf-8"))
                                           for m in call["messages"])
            result.task_runs += 1
            if problems:
                result.run_failures[(method, task_id)] = problems
        missing = set(worlds) - set(method_scores)
        if missing:
            result.suite_failures.append(
                f"{method}: {len(missing)} tasks have no trajectory")
    result.suite_failures += check_report(run_dir / "report.json", scores, worlds)
    return result


def check_report(path: Path, scores: dict[str, dict[str, float]],
                 worlds: dict[str, TaskWorld]) -> list[str]:
    """report.json must carry the per-category means of our own scores."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    failures = []
    if doc["task_count"] != len(worlds):
        failures.append(f"report counts {doc['task_count']} tasks, "
                        f"fixtures hold {len(worlds)}")
    rows = {row["method"]: row for row in doc["rows"]}
    if set(rows) != set(scores):
        failures.append(f"report rows {sorted(rows)} != methods {sorted(scores)}")
    for method, by_task in scores.items():
        row = rows.get(method)
        if row is None:
            continue
        buckets = defaultdict(list)
        for task_id, score in by_task.items():
            buckets[worlds[task_id].category].append(score)
        means = {c: sum(v) / len(v) for c, v in buckets.items()}
        overall = sum(by_task.values()) / len(by_task) if by_task else math.nan
        if set(row["per_category"]) != set(means):
            failures.append(f"{method}: report categories differ")
        for category, mean in means.items():
            reported = row["per_category"].get(category, math.nan)
            if not math.isclose(reported, mean, rel_tol=0, abs_tol=1e-12):
                failures.append(f"{method}/{category}: report says {reported}, "
                                f"own mean is {mean}")
        if not math.isclose(row["overall"], overall, rel_tol=0, abs_tol=1e-12):
            failures.append(f"{method}: overall {row['overall']} != {overall}")
    return failures


# --- byte-level comparisons -------------------------------------------------------------

def artifact_files(run_dir: Path) -> list[Path]:
    files = sorted((run_dir / "trajectories").glob("*.jsonl"))
    return files + [run_dir / name
                    for name in ("report.txt", "report.json", "manifest.json")]


def artifact_bytes(run_dir: Path) -> int:
    return sum(path.stat().st_size for path in artifact_files(run_dir))


def digest(run_dir: Path) -> dict[str, str]:
    return {str(path.relative_to(run_dir)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in artifact_files(run_dir)}


def compare_runs(reference: Path, candidate: Path,
                 manifest_ignore: tuple[str, ...] = ()) -> list[str]:
    """Byte-compare two run directories; manifest keys may be exempted."""
    failures = []
    for ref_path in artifact_files(reference):
        name = ref_path.relative_to(reference)
        cand_path = candidate / name
        if not cand_path.exists():
            failures.append(f"{name} missing")
            continue
        if name.name == "manifest.json" and manifest_ignore:
            ref_doc = json.loads(ref_path.read_text(encoding="utf-8"))
            cand_doc = json.loads(cand_path.read_text(encoding="utf-8"))
            for key in manifest_ignore:
                ref_doc.pop(key, None)
                cand_doc.pop(key, None)
            if ref_doc != cand_doc:
                failures.append(f"{name} differs beyond {manifest_ignore}")
            continue
        if ref_path.read_bytes() != cand_path.read_bytes():
            failures.append(f"{name} differs")
    return failures
