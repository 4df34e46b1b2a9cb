from __future__ import annotations

import json
import math
import operator
import random
import sys
import threading

import pytest

from goalact.environment import (
    Table,
    ToolCall,
    ToolEnvironment,
    load_table,
    render_number,
    render_row,
    render_rows,
)
from goalact.errors import FatalError, ToolError
from goalact.generator import (
    AGGREGATION_ROWS,
    Task,
    generate_aggregation_task,
    generate_khop_task,
    generate_task,
    generate_writing_task,
    load_fixture,
    save_fixture,
)
from goalact.orchestrator import RecordingEnvironment
from goalact.plan import Trajectory
from goalact.records import record_from_dict, record_to_dict
from goalact.skills import observe_emission


def _get(table: str, field_name: str, value) -> ToolCall:
    return ToolCall(tool_name="get_record",
                    arguments={"table": table, "field": field_name,
                               "value": value})


def _filter(table: str, field_name: str, value) -> ToolCall:
    return ToolCall(tool_name="filter_records",
                    arguments={"table": table, "field": field_name,
                               "value": value})


# --- invoke_tool -------------------------------------------------------------------

def test_get_record_returns_the_matching_row(company_env):
    rows = company_env.invoke_tool(_get("companies", "name", "AlphaCorp"))
    assert len(rows) == 1
    assert rows[0]["city"] == "Port Meridell"


def test_filter_with_no_matches_returns_empty_list(company_env):
    assert company_env.invoke_tool(_filter("cases", "status", "archived")) == []


def test_unknown_field_is_reported(company_env):
    with pytest.raises(ToolError, match="table 'companies' has no field 'nme'"):
        company_env.invoke_tool(_get("companies", "nme", "x"))


def test_get_record_miss_raises_nomatch(company_env):
    with pytest.raises(ToolError,
                       match="no companies record with name = 'GammaCo'"):
        company_env.invoke_tool(_get("companies", "name", "GammaCo"))


def test_unknown_tool_is_reported(company_env):
    with pytest.raises(ToolError, match="unknown tool 'teleport'"):
        company_env.invoke_tool(ToolCall(tool_name="teleport", arguments={}))


def test_unexpected_argument_names_are_rejected(company_env):
    with pytest.raises(ToolError, match=r"unexpected argument\(s\): fields"):
        company_env.invoke_tool(ToolCall(
            tool_name="get_record",
            arguments={"table": "companies", "fields": "name",
                       "value": "AlphaCorp"}))


def test_numbers_compare_loosely_but_deterministically(company_env):
    rows = company_env.invoke_tool(_filter("cases", "amount", "1200"))
    assert len(rows) == 1
    assert rows[0]["case_id"] == "CS-100"


def test_filter_matches_brute_force_scan_on_random_predicates():
    rng = random.Random(99)
    statuses = ["open", "closed", "blocked"]
    rows = tuple(
        {"case_id": f"CS-{i:04d}", "status": rng.choice(statuses),
         "amount": rng.randint(0, 30)}
        for i in range(200)
    )
    env = ToolEnvironment(tables=(Table(name="cases", key_field="case_id",
                                        rows=rows),))
    for _ in range(1000):
        field_name = rng.choice(["status", "amount"])
        value = rng.choice(statuses) if field_name == "status" \
            else rng.randint(0, 30)
        got = env.invoke_tool(_filter("cases", field_name, str(value)))
        expected = [r for r in rows if str(r[field_name]) == str(value)]
        assert got == expected  # same rows, same stable order


def _scan_lookup(env: ToolEnvironment, call: ToolCall) -> list:
    """invoke_tool as a loose-equality scan over every row: the oracle."""
    table = env.table(str(call.arguments["table"]))
    field_name = str(call.arguments["field"])
    value = call.arguments["value"]
    if table.rows and field_name not in table.rows[0]:
        raise ToolError(
            f"table '{table.name}' has no field '{field_name}' "
            f"(fields: {', '.join(table.rows[0])})")
    matches = [row for row in table.rows
               if row.get(field_name) == value
               or str(row.get(field_name)) == str(value)]
    if call.tool_name == "get_record":
        if not matches:
            raise ToolError(
                f"no {table.name} record with {field_name} = {value!r}")
        return matches[:1]
    return matches


def _outcome(env: ToolEnvironment, call: ToolCall, lookup) -> tuple:
    try:
        return "rows", [id(row) for row in lookup(env, call)]
    except ToolError as exc:
        return type(exc).__name__, str(exc)


_MIXED_VALUES = ("1", 1, 1.0, True, None, "None", math.nan, "nan", [1],
                 {"a": 1}, "", "True", "1.0", 0, False, "[1]", "{'a': 1}")
_TEXT_QUERIES = ("1", "1.0", "True", "None", "nan", "", "[1]", "{'a': 1}",
                 "0", "False", "absent")
_OTHER_QUERIES = (1, 1.0, True, None, math.nan, [1], {"a": 1}, 0, False)


def _mixed_table(rng: random.Random, name: str, n_rows: int) -> Table:
    fields = ["id", "a", "b", "c"]
    rows = []
    for i in range(n_rows):
        row = {"id": f"{name}-{i}"}
        for field_name in fields[1:]:
            if rng.random() < 0.85:  # some rows lack the field
                row[field_name] = rng.choice(_MIXED_VALUES)
        rows.append(row)
    return Table(name=name, key_field="id", rows=tuple(rows))


def test_text_column_lookups_match_the_loose_equality_scan():
    rng = random.Random(5)
    answered_from_columns = 0
    for _ in range(30):
        env = ToolEnvironment(tables=tuple(
            _mixed_table(rng, name, rng.randint(0, 40))
            for name in ("t0", "t1", "t2")))
        for _ in range(200):
            value = rng.choice(_TEXT_QUERIES if rng.random() < 0.7
                               else _OTHER_QUERIES)
            call = ToolCall(
                tool_name=rng.choice(("get_record", "filter_records")),
                arguments={"table": rng.choice(("t0", "t1", "t2")),
                           "field": rng.choice(("a", "b", "c", "id", "zz")),
                           "value": value})
            assert _outcome(env, call, ToolEnvironment.invoke_tool) == \
                _outcome(env, call, _scan_lookup), call
            table = env.table(call.arguments["table"])
            if type(value) is str and table.rows \
                    and call.arguments["field"] in table.fields:
                # The lookup was answered from the field's text column.
                assert isinstance(table._columns[call.arguments["field"]],
                                  list)
                answered_from_columns += 1
    assert answered_from_columns > 2000  # of 6,000 queries


def test_a_field_with_a_non_json_value_is_scanned():
    class AnyText:
        def __eq__(self, other):
            return isinstance(other, str)

        __hash__ = object.__hash__

    rows = ({"id": "r0", "v": "x"}, {"id": "r1", "v": AnyText()},
            {"id": "r2", "v": "y"})
    env = ToolEnvironment(tables=(Table("t", "id", rows),))
    for value in ("x", "y", "z"):
        assert env.invoke_tool(_filter("t", "v", value)) == \
            _scan_lookup(env, _filter("t", "v", value))
    assert [row["id"] for row in env.invoke_tool(_filter("t", "v", "z"))] \
        == ["r1"]


def test_threads_sharing_a_fresh_table_get_the_scan_rows():
    rng = random.Random(11)
    rows = tuple({"id": f"r{i}", "status": rng.choice(("open", "closed")),
                  "amount": rng.randint(0, 9)} for i in range(2000))
    queries = [("status", "open"), ("status", "closed"), ("amount", "7"),
               ("id", "r1999"), ("amount", "x")]
    env = ToolEnvironment(tables=(Table("cases", "id", rows),))
    expected = {q: _scan_lookup(env, _filter("cases", *q)) for q in queries}
    got: list[tuple] = []
    lock = threading.Lock()

    def worker(offset: int) -> None:
        for i in range(len(queries) * 4):
            query = queries[(i + offset) % len(queries)]
            rows_found = env.invoke_tool(_filter("cases", *query))
            with lock:
                got.append((query, rows_found))

    _run_threads(worker)
    assert len(got) == 8 * len(queries) * 4
    for query, rows_found in got:
        assert [id(r) for r in rows_found] == \
            [id(r) for r in expected[query]], query


def _run_threads(worker, count: int = 8) -> None:
    """Run worker(i) for i < count in threads started together, switching
    every microsecond, and check that every thread finished."""
    start = threading.Barrier(count)

    def run(offset: int) -> None:
        start.wait(timeout=60)
        worker(offset)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)


# --- result text -----------------------------------------------------------------

def _texts(env: ToolEnvironment, call: ToolCall) -> tuple:
    """(observation, logged result) of one call, as a run records them."""
    trajectory = Trajectory(task_id="t", method="m")
    emission = json.dumps({"tool": call.tool_name,
                           "args": dict(call.arguments)})
    observation, _ = observe_emission(
        emission, RecordingEnvironment(env, trajectory, 4096), "Searching")
    record = trajectory.tool_calls[-1]
    failed = observation.startswith(f"Tool call {call.tool_name} failed: ")
    return observation, record.result, not failed, record.ok


def _reference_texts(env: ToolEnvironment, call: ToolCall) -> tuple:
    """The same texts from the scan and `render_row`/`render_rows`."""
    try:
        rows = _scan_lookup(env, call)
    except ToolError as exc:
        return (f"Tool call {call.tool_name} failed: {exc}", str(exc),
                False, False)
    observation = render_row(rows[0]) \
        if call.tool_name == "get_record" else render_rows(rows)
    return observation, render_rows(rows), True, True


def test_result_texts_match_rendering_every_row_afresh():
    rng = random.Random(5)
    ok_calls = 0
    for _ in range(30):
        env = ToolEnvironment(tables=tuple(
            _mixed_table(rng, name, rng.randint(0, 40))
            for name in ("t0", "t1", "t2")))
        for _ in range(200):
            value = rng.choice(_TEXT_QUERIES if rng.random() < 0.7
                               else _OTHER_QUERIES)
            call = ToolCall(
                tool_name=rng.choice(("get_record", "filter_records")),
                arguments={"table": rng.choice(("t0", "t1", "t2")),
                           "field": rng.choice(("a", "b", "c", "id", "zz")),
                           "value": value})
            texts = _texts(env, call)
            assert texts == _reference_texts(env, call), call
            ok_calls += texts[2]
    assert ok_calls > 2000  # of 6,000 calls


def test_threads_rendering_a_fresh_table_get_the_reference_texts():
    rng = random.Random(11)
    rows = tuple({"id": f"r{i}", "status": rng.choice(("open", "closed")),
                  "amount": rng.randint(0, 9), "note": f"n\u00e9{i % 13}"}
                 for i in range(2000))
    calls = [_filter("cases", "status", "open"), _get("cases", "amount", "7"),
             _filter("cases", "amount", "3"), _get("cases", "id", "r1999"),
             _filter("cases", "note", "n\u00e93")]
    env = ToolEnvironment(tables=(Table("cases", "id", rows),))
    # The scan and render_rows fill none of the table's caches.
    expected = {i: _reference_texts(env, call)
                for i, call in enumerate(calls)}
    got: list[tuple] = []
    lock = threading.Lock()

    def worker(offset: int) -> None:
        for i in range(len(calls) * 4):
            index = (i + offset) % len(calls)
            texts = _texts(env, calls[index])
            with lock:
                got.append((index, texts))

    _run_threads(worker)
    assert len(got) == 8 * len(calls) * 4
    for index, texts in got:
        assert texts == expected[index], calls[index]


# --- generators ----------------------------------------------------------------------

def test_khop_determinism():
    first_task, first_env = generate_khop_task(seed=4, k=3)
    second_task, second_env = generate_khop_task(seed=4, k=3)
    assert first_task == second_task
    assert first_env == second_env
    other_task, _ = generate_khop_task(seed=5, k=3)
    assert other_task != first_task


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_khop_structure(k):
    task, env = generate_khop_task(seed=2, k=k)
    assert task.category == f"{k}hop"
    assert len(task.gold_path) == k
    assert len(task.key_middles) == k - 1
    assert len(task.key_answers) == 1
    assert len(env.tables) == k


@pytest.mark.parametrize("k", [1, 3, 5])
def test_khop_gold_path_replay_is_sound(k):
    task, env = generate_khop_task(seed=8, k=k)
    seen = []
    for (table_name, key), hop in zip(task.gold_path, task.recipe["hops"]):
        rows = env.invoke_tool(_get(table_name, hop["lookup_field"], key))
        seen.append(rows[0])
    middle_pool = " ".join(str(v) for row in seen for v in row.values())
    for middle in task.key_middles:
        assert middle in middle_pool
    terminal = seen[-1]
    for answer in task.key_answers:
        assert answer in {str(v) for v in terminal.values()}


def test_khop_one_hop_is_one_lookup():
    task, env = generate_khop_task(seed=1, k=1)
    assert task.key_middles == ()
    hop = task.recipe["hops"][0]
    rows = env.invoke_tool(_get(hop["table"], hop["lookup_field"],
                                hop["lookup_value"]))
    assert task.key_answers[0] in {str(v) for v in rows[0].values()}


def test_khop_keywords_are_distinctive():
    for seed in range(20):
        task, _ = generate_khop_task(seed=seed, k=3)
        values = list(task.key_answers) + list(task.key_middles)
        for value in values:
            assert len(value) >= 6
        for a in values:
            for b in values:
                if a != b:
                    assert a not in b


def test_khop_tables_have_distractors_and_uniform_schemas():
    task, env = generate_khop_task(seed=3, k=2)
    for table in env.tables:
        assert len(table.rows) >= 3  # gold + distractor chains
        fields = set(table.rows[0].keys())
        for row in table.rows:
            assert set(row.keys()) == fields
        keys = [row[table.key_field] for row in table.rows]
        assert len(keys) == len(set(keys))


def test_writing_task_soundness():
    task, env = generate_writing_task(seed=5)
    assert task.category == "writing"
    assert len(task.key_answers) >= 6
    pool = " ".join(str(v) for table in env.tables for row in table.rows
                    for v in row.values())
    for answer in task.key_answers:
        assert answer in pool
    assert task.recipe["topic"] in task.query


def test_writing_determinism():
    assert generate_writing_task(seed=5) == generate_writing_task(seed=5)


def test_aggregation_total_matches_brute_force():
    task, env = generate_aggregation_task(seed=2)
    rows = env.invoke_tool(_filter(task.recipe["table"],
                                   task.recipe["filter_field"],
                                   task.recipe["filter_value"]))
    assert sum(r["amount"] for r in rows) == task.recipe["total"]
    assert task.key_answers == (render_number(task.recipe["total"]),)


def test_aggregation_needs_more_lookups_than_the_iteration_cap():
    task, _ = generate_aggregation_task(seed=2)
    assert len(task.gold_path) == AGGREGATION_ROWS
    assert AGGREGATION_ROWS > 10  # one-per-step lookups cannot fit in T=10


def test_aggregation_determinism_and_total_uniqueness():
    assert generate_aggregation_task(seed=7) == generate_aggregation_task(seed=7)
    task, env = generate_aggregation_task(seed=7)
    total_text = task.key_answers[0]
    for table in env.tables:
        for row in table.rows:
            for field_name, value in row.items():
                if field_name != "amount":
                    assert total_text not in str(value)


def test_generate_task_dispatches_by_category():
    assert generate_task("3hop", 1)[0].category == "3hop"
    assert generate_task("writing", 1)[0].category == "writing"
    assert generate_task("aggregation", 1)[0].category == "aggregation"
    with pytest.raises(ValueError):
        generate_task("6hop", 1)
    with pytest.raises(ValueError):
        generate_task("poetry", 1)


# --- fixtures on disk -------------------------------------------------------------------

def test_task_dict_round_trip():
    task, _ = generate_khop_task(seed=9, k=2)
    assert record_from_dict(Task, record_to_dict(task)) == task


def test_fixture_save_and_load_round_trip(tmp_path):
    task, env = generate_khop_task(seed=9, k=2)
    path = save_fixture(task, env, tmp_path)
    loaded_task, loaded_env = load_fixture(path)
    assert loaded_task == task
    assert loaded_env.tables == env.tables


def test_table_files_are_one_document_per_table(tmp_path):
    task, env = generate_writing_task(seed=1)
    save_fixture(task, env, tmp_path)
    table_files = sorted((tmp_path / "tables").glob(f"{task.id}__*.json"))
    assert len(table_files) == len(env.tables)
    rebuilt = ToolEnvironment(tables=tuple(map(load_table, table_files)))
    assert {t.name for t in rebuilt.tables} == {t.name for t in env.tables}


def test_render_number_canonical_forms():
    assert render_number(3) == "3"
    assert render_number(6143820) == "6143820"
    assert render_number(2.5) == "2.5"
    assert render_number(1 / 3) == "0.333333"
    assert render_number(10.0) == "10"
    assert render_number(True) == "true"


@pytest.mark.parametrize("row", [[["name", "x"]], "name", 3, None],
                         ids=["pairs", "string", "number", "null"])
def test_a_table_row_that_is_no_object_is_a_malformed_fixture(tmp_path, row):
    task, env = generate_khop_task(seed=9, k=2)
    path = save_fixture(task, env, tmp_path)
    table_file = sorted((tmp_path / "tables").glob(f"{task.id}__*.json"))[0]
    doc = json.loads(table_file.read_text(encoding="utf-8"))
    doc["rows"].insert(1, row)
    table_file.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FatalError, match=r"malformed .*rows must be "
                                         r"tuple\[dict, \.\.\.\], not"):
        load_fixture(path)


def test_a_table_holds_the_rows_it_was_decoded_with():
    doc = {"name": "t", "key_field": "id",
           "rows": [{"id": "a", "n": 1}, {"id": "b", "n": 2}]}
    table = record_from_dict(Table, doc)
    assert table.rows == tuple(doc["rows"])
    assert all(map(operator.is_, table.rows, doc["rows"]))
