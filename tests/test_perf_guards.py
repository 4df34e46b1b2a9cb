"""Count-based guards on the scripted-oracle path; no timing involved.

A 3-task x 5-method oracle suite runs in a fresh interpreter, where an audit
hook sees every file the process opens and wrappers count the request
hashes the scripted backend computes, the rows rendered to JSON and the
rows returned, the other `json.dumps` calls made inside a run, every
`dataclasses.replace` call (patched before `goalact` is imported), the
table-schema renders, and the planning frames filled.  Given an exemplar
file, the same script runs GoalAct and Plan-and-Solve with it instead, to
count its reads.  The same suite, run in this process, counts the
trajectories alive after each run; replayed from a cassette recorded from
it, it counts the request hashes.  The lazy oracle is guarded by counting
the plan, ReAct and skill-rule renderings, the plan-step strings encoded,
the rule families a single run builds and the objective and sub-task texts
it writes, and the planner by counting the JSON decodes of a `Tool[...]`
action.  Table lookups are guarded by counting the row reads of a 2,000-row
table.  A suite without a run directory encodes no trajectory, and a log
read a second time walks no declared type: `typing.get_origin` is not
called.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import goalact
from goalact import backends, oracle, planner, suite
from goalact.environment import Table, ToolCall, ToolEnvironment
from goalact.generator import (
    generate_aggregation_task,
    generate_khop_task,
    generate_writing_task,
)
from goalact.orchestrator import (
    CODEACT_MARKER,
    METHODS,
    NO_PLAN_MARKER,
    PE_PLAN_MARKER,
    PE_SUBTASK_MARKER,
    REACT_MARKER,
    SUMMARY_MARKER,
    RunConfig,
    run_task,
)
from goalact.plan import Trajectory, read_trajectories
from goalact.planner import PLANNING_MARKER
from goalact.skills import SEARCHING_MARKER

_SUITE_SCRIPT = r"""
import json, os, sys

PROMPT_FILES = ("global_planning.txt", "exemplars.jsonl")
EXEMPLARS_FILE = sys.argv[2] if len(sys.argv) > 2 else None
opens = {name: 0 for name in PROMPT_FILES + ("exemplars_file",)}


def audit(event, args):
    if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
        path = os.fsdecode(args[0])
        opens["exemplars_file"] += path == EXEMPLARS_FILE
        for name in PROMPT_FILES:
            if path.endswith(os.path.join("prompts", name)):
                opens[name] += 1


sys.addaudithook(audit)

counts = dict.fromkeys(("request_hashes", "row_dumps", "run_dumps",
                        "replaces", "table_schemas", "frames", "rounds"), 0)


def counting(name, original):
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    return counted


# Before goalact is imported: a module that imports it by name keeps the
# function it found.
import dataclasses
dataclasses.replace = counting("replaces", dataclasses.replace)

from goalact import (backends, environment, generator, oracle, orchestrator,
                     planner, suite)

backends.request_hash = counting("request_hashes", backends.request_hash)
cached = environment.ToolEnvironment.__dict__["_table_schemas"]
cached.func = counting("table_schemas", cached.func)
planner.planning_frame = orchestrator.planning_frame = counting(
    "frames", planner.planning_frame)
orchestrator.update_global_plan = counting("rounds",
                                           planner.update_global_plan)

pairs = [generator.generate_khop_task(seed=5, k=2),
         generator.generate_aggregation_task(seed=5),
         generator.generate_writing_task(seed=5)]
row_ids = {id(row) for _, env in pairs for table in env.tables
           for row in table.rows}
returned = set()
original_invoke = environment.ToolEnvironment.invoke_tool


def invoke_tool(self, call):
    rows = original_invoke(self, call)
    returned.update(id(row) for row in rows)
    return rows


environment.ToolEnvironment.invoke_tool = invoke_tool
in_run = [False]
original_run_task = suite.run_task


def run_task(*args):
    in_run[0] = True
    try:
        return original_run_task(*args)
    finally:
        in_run[0] = False


suite.run_task = run_task
original_dumps = json.dumps


def dumps(obj, *args, **kwargs):
    row = id(obj) in row_ids
    counts["row_dumps"] += row
    counts["run_dumps"] += in_run[0] and not row
    return original_dumps(obj, *args, **kwargs)


json.dumps = dumps
if EXEMPLARS_FILE is None:
    methods, config = orchestrator.METHODS, orchestrator.RunConfig()
else:
    methods = (orchestrator.METHOD_GOALACT, orchestrator.METHOD_PLAN_AND_SOLVE)
    config = orchestrator.RunConfig(exemplars_file=EXEMPLARS_FILE)
report = suite.run_suite(pairs, methods, config, oracle.oracle_backend,
                         out_dir=sys.argv[1])
json.dumps = original_dumps
print(json.dumps({"opens": opens, "rows": len(report.rows),
                  "environments": len(pairs), "rows_returned": len(returned),
                  **counts}))
"""


def _count_suite(*args: Path) -> dict:
    """The counts of one suite script run in a fresh interpreter."""
    src = str(Path(goalact.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _SUITE_SCRIPT,
                           *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def suite_counts(tmp_path_factory) -> dict:
    """The counts of one 3-task x 5-method suite."""
    counts = _count_suite(tmp_path_factory.mktemp("suite") / "run")
    assert counts["rows"] == len(METHODS)
    return counts


def test_oracle_suite_hashes_no_request_and_reads_prompt_assets_once(
        suite_counts):
    assert suite_counts["request_hashes"] == 0
    # Exactly once rather than at most once: GoalAct needs both files, so a
    # zero would mean the hook missed the reads.
    assert suite_counts["opens"] == {"global_planning.txt": 1,
                                     "exemplars.jsonl": 1,
                                     "exemplars_file": 0}


def test_a_suite_reads_its_exemplars_file_once_per_method(tmp_path):
    exemplars = tmp_path / "custom.jsonl"
    exemplars.write_text("".join(
        json.dumps({"transcript": f"exemplar {i}"}) + "\n" for i in range(2)),
        encoding="utf-8")
    counts = _count_suite(tmp_path / "run", exemplars)
    assert counts["rows"] == 2
    # Once, when the suite's config is made; each method's config shares
    # what it read.
    assert counts["opens"] == {"global_planning.txt": 1,
                               "exemplars.jsonl": 0, "exemplars_file": 1}


def _suite_pairs() -> list:
    """The 3 tasks of the suite the script above runs."""
    return [generate_khop_task(seed=5, k=2), generate_aggregation_task(seed=5),
            generate_writing_task(seed=5)]


def test_a_suite_holds_one_run_at_a_time(monkeypatch, tmp_path):
    def live_trajectories() -> int:
        return sum(isinstance(obj, Trajectory) for obj in gc.get_objects())

    live = []
    original = suite.run_task

    def counting_run_task(*args):
        trajectory = original(*args)
        live.append(live_trajectories())
        return trajectory

    monkeypatch.setattr(suite, "run_task", counting_run_task)
    pairs = _suite_pairs()
    gc.collect()
    before = live_trajectories()
    suite.run_suite(pairs, METHODS, RunConfig(), oracle.oracle_backend,
                    out_dir=tmp_path / "run")
    # The run just made and at most one other: each run's line is written
    # before the next run starts.
    assert len(live) == len(pairs) * len(METHODS)
    assert max(live) - before <= 2


def test_a_replayed_suite_hashes_each_logged_call_once(monkeypatch,
                                                       tmp_path):
    pairs = _suite_pairs()
    cassette = tmp_path / "suite.jsonl"
    suite.run_suite(pairs, METHODS, RunConfig(),
                    lambda task: backends.CassetteRecorder(
                        oracle.oracle_backend(task), cassette),
                    out_dir=tmp_path / "recorded")
    hashes = [0]
    original = backends.request_hash

    def counting(request):
        hashes[0] += 1
        return original(request)

    monkeypatch.setattr(backends, "request_hash", counting)
    spec = f"replay:{cassette}"
    suite.run_suite(pairs, METHODS, RunConfig(),
                    suite.resolve_backend_factory(spec),
                    out_dir=tmp_path / "replayed", backend_spec=spec)
    logged = sum(len(json.loads(line)["llm_calls"])
                 for log in (tmp_path / "replayed" / "trajectories").iterdir()
                 for line in log.read_text(encoding="utf-8").splitlines())
    assert logged > len(pairs) * len(METHODS)
    assert hashes[0] == logged


def test_oracle_suite_renders_each_run_constant_once(suite_counts):
    # Each row a call returned is rendered to JSON once, however many runs
    # return it; zero would mean the wrapper missed the renders.
    assert suite_counts["rows_returned"] > 0
    assert suite_counts["row_dumps"] == suite_counts["rows_returned"]
    # One schema text per environment.
    assert suite_counts["table_schemas"] == suite_counts["environments"]
    # One planning frame per GoalAct and Plan-and-Solve run, shared by all
    # of GoalAct's planning rounds.
    assert suite_counts["frames"] == 2 * suite_counts["environments"]
    assert suite_counts["rounds"] > suite_counts["environments"]


def test_a_run_writes_no_text_but_rows_through_json_dumps(suite_counts):
    # The oracle writes its tool-call and ReAct texts with json's C string
    # encoder; only the suite's own documents (its config hash, its
    # reports) go through `json.dumps`, outside any run.
    assert suite_counts["row_dumps"] > 0
    assert suite_counts["run_dumps"] == 0


def test_a_suite_rebuilds_no_record_through_dataclasses_replace(suite_counts):
    # An executed plan step and its action come from their constructors.
    assert suite_counts["replaces"] == 0


def _count_renders(monkeypatch, *names: str) -> dict[str, int]:
    """Count the oracle's calls to each named rendering function."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _original=getattr(oracle, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(oracle, name, counting)
    return counts


def test_a_codeact_run_renders_no_plan(monkeypatch):
    counts = _count_renders(monkeypatch, "render_step_object",
                            "join_step_objects", "_searching_rules")
    task, env = generate_khop_task(seed=5, k=3)
    backend = oracle.oracle_backend(task)
    traj = run_task(task, env, RunConfig(method="CodeAct"), backend)
    assert traj.termination_reason == "finish"
    assert counts == {"render_step_object": 0, "join_step_objects": 0,
                      "_searching_rules": 0}
    assert {rule.name.split("-")[1] for rule in backend.rules} == \
        {"codeact", "summary"}


@pytest.mark.parametrize("method, family", [("ReAct", "react"),
                                            ("PlanAndExecute", "pe")])
def test_a_run_sending_no_skill_prompt_renders_no_skill_rule(monkeypatch,
                                                             method, family):
    counts = _count_renders(monkeypatch, "_searching_rules")
    task, env = generate_writing_task(seed=5)
    backend = oracle.oracle_backend(task)
    traj = run_task(task, env, RunConfig(method=method), backend)
    assert traj.termination_reason == "finish"
    assert counts == {"_searching_rules": 0}
    # Neither the Searching nor the Writing family is built.
    assert {rule.name.split("-")[1] for rule in backend.rules} == \
        {family, "summary"}


def test_a_goalact_run_builds_no_react_or_plan_and_execute_family(
        monkeypatch):
    counts = _count_renders(monkeypatch, "_react_json", "render_step_object")
    task, env = generate_writing_task(seed=5)
    backend = oracle.oracle_backend(task)
    traj = run_task(task, env, RunConfig(method="GoalAct"), backend)
    assert traj.termination_reason == "finish"
    # The plan family's six steps, each rendered once; no step of
    # Plan-and-Execute's plan.
    assert counts == {"_react_json": 0, "render_step_object": 6}
    assert {rule.name.split("-")[1] for rule in backend.rules} == \
        {"search1", "search2", "search3", "search4", "compose", "summary",
         "plan"}


@pytest.mark.parametrize("method", ["GoalAct", "PlanAndExecute",
                                    "PlanAndSolve"])
def test_a_plan_family_encodes_each_step_once(monkeypatch, method):
    # A 5-hop plan has six steps, each with a thinking and an action string:
    # 12 encodes, where rendering each round's suffix whole makes 42.
    encodes = [0]
    original = oracle._encode_unicode

    def counting(text):
        encodes[0] += 1
        return original(text)

    monkeypatch.setattr(oracle, "_encode_unicode", counting)
    task, env = generate_khop_task(seed=5, k=5)
    traj = run_task(task, env, RunConfig(method=method),
                    oracle.oracle_backend(task))
    assert traj.termination_reason == "finish"
    assert encodes == [12]


def test_table_lookups_read_each_row_once_per_field():
    reads = [0]

    class CountingRow(dict):
        def get(self, key, default=None):
            reads[0] += 1
            return super().get(key, default)

    rows = tuple(CountingRow(id=f"r{i}", status=("open", "closed")[i % 2],
                             amount=i % 7) for i in range(2000))
    env = ToolEnvironment(tables=(Table("cases", "id", rows),))

    def reads_of(tool: str, field_name: str, value) -> int:
        reads[0] = 0
        env.invoke_tool(ToolCall(tool, {"table": "cases", "field": field_name,
                                        "value": value}))
        return reads[0]

    assert reads_of("filter_records", "status", "open") == 2000
    assert reads_of("filter_records", "status", "closed") == 0
    assert reads_of("get_record", "status", "open") == 0
    assert reads_of("get_record", "amount", "3") == 2000
    for value in ("3", "6", "0"):
        assert reads_of("get_record", "amount", value) == 0
        assert reads_of("filter_records", "amount", value) == 0
    # A value that is not text is compared row by row, as before.
    assert reads_of("filter_records", "amount", 3) == 2000
    assert reads_of("filter_records", "amount", 3) == 2000


def _count_asking(monkeypatch) -> list[int]:
    """Count the objective and sub-task texts the oracle writes."""
    asked = [0]
    original = oracle.Lookup._asking

    def counting(self, *args):
        asked[0] += 1
        return original(self, *args)

    monkeypatch.setattr(oracle.Lookup, "_asking", counting)
    return asked


def test_building_the_oracle_rules_writes_no_objective(monkeypatch):
    asked = _count_asking(monkeypatch)
    for task, _ in _suite_pairs():
        assert oracle.build_oracle_rules(task)
    assert asked == [0]


@pytest.mark.parametrize("method", ["CodeAct", "ReAct"])
def test_a_khop_run_without_plans_writes_no_objective(monkeypatch, method):
    asked = _count_asking(monkeypatch)
    task, env = generate_khop_task(seed=5, k=3)
    traj = run_task(task, env, RunConfig(method=method),
                    oracle.oracle_backend(task))
    assert traj.termination_reason == "finish"
    assert asked == [0]


def test_a_khop_task_lists_no_writing_or_coding_family():
    task, _ = generate_khop_task(seed=5, k=2)
    assert [marker for marker, _ in oracle.build_oracle_rules(task)] == [
        SEARCHING_MARKER, SUMMARY_MARKER, PLANNING_MARKER, NO_PLAN_MARKER,
        REACT_MARKER, CODEACT_MARKER, PE_PLAN_MARKER, PE_SUBTASK_MARKER]


def test_a_tool_call_action_is_not_json_decoded(monkeypatch):
    decoded = [0]
    original = planner.decode_json

    def counting(text):
        decoded[0] += 1
        return original(text)

    monkeypatch.setattr(planner, "decode_json", counting)
    for action in ("get_record[table=parties, field=legal_name, value=X]",
                   "filter_records[table=statutes, field=topic, value=Y]"):
        assert planner._decoded(action) is None
    assert decoded == [0]


@pytest.mark.parametrize("logged", [False, True])
def test_a_suite_encodes_a_trajectory_only_for_a_log(monkeypatch, tmp_path,
                                                     logged):
    encoded = [0]
    original = suite.encode_trajectory

    def counting(trajectory):
        encoded[0] += 1
        return original(trajectory)

    monkeypatch.setattr(suite, "encode_trajectory", counting)
    pairs = _suite_pairs()
    suite.run_suite(pairs, METHODS, RunConfig(), oracle.oracle_backend,
                    out_dir=tmp_path / "run" if logged else None)
    assert encoded == [len(pairs) * len(METHODS) if logged else 0]


def test_a_second_read_of_a_log_walks_no_type(monkeypatch, tmp_path):
    suite.run_suite(_suite_pairs(), METHODS, RunConfig(),
                    oracle.oracle_backend, out_dir=tmp_path)
    log = tmp_path / "trajectories" / "GoalAct.jsonl"
    first = list(read_trajectories(log))
    walked = [0]
    original = typing.get_origin

    def counting(hint):
        walked[0] += 1
        return original(hint)

    monkeypatch.setattr(typing, "get_origin", counting)
    assert list(read_trajectories(log)) == first
    assert walked == [0]
