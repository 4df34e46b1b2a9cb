from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goalact
from goalact import cli, planner
from goalact.cli import main
from goalact.generator import generate_task
from goalact.orchestrator import CODEACT_MARKER, REACT_MARKER, SUMMARY_MARKER
from goalact.plan import (
    FINISH,
    TERMINATION_FATAL,
    TERMINATION_FINISH,
    SkillAction,
    Trajectory,
    make_plan,
    read_trajectories,
)
from goalact.planner import PLANNING_MARKER
from goalact.records import record_to_dict

# A one-step plan revision's document, and its step's.
_REVISION = record_to_dict(make_plan([("done", SkillAction(FINISH))]))
_STEP = _REVISION["steps"][0]


def _generate(tmp_path, capsys, category="khop", seed=1, k=2, count=2):
    out = tmp_path / "fixtures"
    code = main(["generate", "--seed", str(seed), "--k", str(k),
                 "--count", str(count), "--category", category,
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return out


def test_generate_writes_deterministic_fixtures(tmp_path, capsys):
    first = _generate(tmp_path / "a", capsys, seed=1, k=3, count=5)
    second = _generate(tmp_path / "b", capsys, seed=1, k=3, count=5)
    first_tasks = sorted((first / "tasks").glob("*.json"))
    second_tasks = sorted((second / "tasks").glob("*.json"))
    assert len(first_tasks) == 5
    assert [p.name for p in first_tasks] == [p.name for p in second_tasks]
    for a, b in zip(first_tasks, second_tasks):
        assert a.read_bytes() == b.read_bytes()


def test_generate_writes_the_tasks_of_consecutive_seeds(tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=7, k=2, count=3)
    assert sorted(path.stem for path in (fixtures / "tasks").glob("*.json")) \
        == sorted(generate_task("2hop", seed)[0].id for seed in (7, 8, 9))


def test_run_single_task_with_oracle(tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=7, k=2, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    out_dir = tmp_path / "run"
    code = main(["run", "--task", str(task_file), "--method", "goalact",
                 "--backend", "scripted:oracle", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "s=1.0000" in captured.out
    assert "termination=finish" in captured.out
    assert (out_dir / "trajectories.jsonl").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["backend"] == "scripted:oracle"
    assert manifest["methods"] == ["GoalAct"]


def test_run_twice_into_one_directory_rewrites_it(tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=7, k=2, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    out_dir = tmp_path / "run"
    argv = ["run", "--task", str(task_file), "--out", str(out_dir)]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert main(argv) == 0
    capsys.readouterr()
    second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert second == first
    assert sorted(first) == ["manifest.json", "report.json", "report.txt",
                             "trajectories.jsonl"]
    assert len(first["trajectories.jsonl"].splitlines()) == 1
    assert "jobs" not in json.loads(first["manifest.json"])


def _run_dir_files(out_dir):
    return sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*"))


def test_a_run_into_a_suites_directory_leaves_no_method_log(tmp_path,
                                                              capsys):
    fixtures = _generate(tmp_path, capsys, seed=7, k=2, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    out_dir = tmp_path / "run"
    assert main(["suite", "--fixtures", str(fixtures), "--methods",
                 "goalact,react", "--out", str(out_dir)]) == 0
    assert main(["run", "--task", str(task_file), "--method", "codeact",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert _run_dir_files(out_dir) == ["manifest.json", "report.json",
                                       "report.txt", "trajectories.jsonl"]


def test_a_suite_into_a_runs_directory_leaves_no_run_log(tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=7, k=2, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    out_dir = tmp_path / "run"
    assert main(["run", "--task", str(task_file), "--out", str(out_dir)]) == 0
    assert main(["suite", "--fixtures", str(fixtures), "--methods", "react",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert _run_dir_files(out_dir) == [
        "manifest.json", "report.json", "report.txt", "trajectories",
        "trajectories/ReAct.jsonl"]


def test_suite_reports_one_row_per_method(tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=2)
    out_dir = tmp_path / "suite"
    code = main(["suite", "--fixtures", str(fixtures),
                 "--methods", "goalact,react",
                 "--backend", "scripted:oracle", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert [row["method"] for row in report["rows"]] == ["GoalAct", "ReAct"]
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "trajectories" / "GoalAct.jsonl").exists()
    assert (out_dir / "trajectories" / "ReAct.jsonl").exists()
    assert "GoalAct" in captured.out


def test_replay_renders_byte_identically_without_backend_calls(tmp_path,
                                                               capsys):
    fixtures = _generate(tmp_path, capsys, seed=9, k=2, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    out_dir = tmp_path / "run"
    main(["run", "--task", str(task_file), "--out", str(out_dir)])
    capsys.readouterr()
    log = out_dir / "trajectories.jsonl"
    assert main(["replay", "--trajectory", str(log)]) == 0
    first = capsys.readouterr().out
    assert main(["replay", "--trajectory", str(log)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "plan revisions" in first


def test_replay_prints_each_transcript_before_a_malformed_line(tmp_path,
                                                              capsys):
    fixtures = _generate(tmp_path, capsys, seed=9, k=2, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    out_dir = tmp_path / "run"
    main(["run", "--task", str(task_file), "--out", str(out_dir)])
    capsys.readouterr()
    log = out_dir / "trajectories.jsonl"
    assert main(["replay", "--trajectory", str(log)]) == 0
    first = capsys.readouterr().out
    with open(log, "a", encoding="utf-8") as handle:
        handle.write("[1]\n")
    assert main(["replay", "--trajectory", str(log)]) == 2
    printed = capsys.readouterr()
    assert printed.out == first
    assert printed.err.startswith(f"configuration fault: {log}:2: malformed")


def test_report_command_formats(tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
    out_dir = tmp_path / "suite"
    main(["suite", "--fixtures", str(fixtures), "--methods", "goalact",
          "--backend", "scripted:oracle", "--out", str(out_dir)])
    capsys.readouterr()
    assert main(["report", "--results", str(out_dir), "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "Method" in text and "ALL" in text
    assert text == (out_dir / "report.txt").read_text(encoding="utf-8")
    assert main(["report", "--results", str(out_dir / "report.json"),
                 "--format", "json"]) == 0
    rendered = capsys.readouterr().out
    assert rendered == (out_dir / "report.json").read_text(encoding="utf-8")
    assert json.loads(rendered)["rows"][0]["method"] == "GoalAct"


def test_a_report_of_integer_scores_renders_them(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"categories": ["1hop"], "task_count": 1,
                                  "rows": [{"method": "GoalAct",
                                            "per_category": {"1hop": 1},
                                            "overall": 1}]}),
                      encoding="utf-8")
    assert main(["report", "--results", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[2].split() == [
        "GoalAct", "1.0000", "1.0000"]
    assert main(["report", "--results", str(report), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["overall"] == 1


def test_bad_configuration_exits_two(tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    code = main(["run", "--task", str(task_file),
                 "--backend", "scripted:/no/such/rules.jsonl"])
    assert code == 2
    code = main(["run", "--task", str(tmp_path / "missing-task.json")])
    assert code == 2
    code = main(["suite", "--fixtures", str(tmp_path / "nowhere"),
                 "--methods", "goalact", "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


# What a row's refusal says besides the file's name.
_SAYS = {
    '{"custom_skills": [{"name": "Drafting", "descripton": "x"}]}':
        "a CustomSkill is an object of exactly the keys name, description",
    '{"ablations": "no_writing"}': "ablations must be an array of strings",
    '{"key": "k", "response": 5}': "response must be str, not 5",
    '{"backend": 5}': "backend must be str, not 5",
}


@pytest.mark.parametrize("kind, text", [
    ("config", "[1]"),
    ("config", '{"sandbox_limits": {"bogus": 1}}'),
    ("config", '{"custom_skills": [{"description": "x"}]}'),
    ("config", '{"max_iterations": "ten"}'),
    ("config", '{"observation_bytes": "big"}'),
    ("config", '{"exemplar_count": "2"}'),
    ("config", '{"max_plan_steps": "x"}'),
    ("config", '{"writing_budget": null}'),
    ("config", '{"max_iterations": true}'),
    ("config", '{"bogus": 1}'),
    ("config", '{"exemplar_count": -1}'),
    ("config", '{"exemplar_count": 3}'),
    ("config", '{"custom_skills": [{"name": "Searching"}]}'),
    ("config", '{"ablations": ["no_searching", "no_coding", "no_writing"]}'),
    ("config", '{"max_plan_steps": 0}'),
    ("config", '{"observation_bytes": -5}'),
    ("config", '{"writing_budget": -1}'),
    ("cassette", '{"response": "x"}'),
    ("rules", '{"substrings": ["x"]}'),
    ("rules", '["x", ["y"]]'),
    ("rules", '{"response": "x", "ordinal": 1}'),
    ("task", None),
    ("task", {"key_answers": "Leasing Charter 7821"}),
    ("task", {"key_answers": []}),
    ("task", {"key_middles": [1]}),
    ("task", {"gold_path": [["companies", 2]]}),
    ("task", {"gold_path": [["companies"]]}),
    ("task", {"id": 5}),
    ("task", {"category": ["x"]}),
    ("task", {"query": None}),
    # Keys read as what no task file means: a string as its characters'
    # table files, a number as its text, an array of pairs as a recipe.
    ("task", {"table_files": "ab"}),
    ("task", {"table_files": [1]}),
    ("task", {"recipe": [["kind", "khop"]]}),
    ("task", {"bogus": 1}),
    # A recipe that lacks a field the oracle reads: the oracle refuses it
    # when it makes the task's backend, naming the task.
    ("task", {"recipe": {"kind": "khop"}}),
    ("task", {"recipe": {"kind": "khop", "hops": [{}]}}),
    ("task", {"recipe": {"kind": "khop", "hops": [], "answer": "a",
                         "answer_field": "f"}}),
    # A recipe value that a rule holds, not a string: refused the same way.
    ("task", {"recipe": {"kind": "khop", "hops": [
        {"table": "accounts", "lookup_field": "account_id",
         "lookup_value": "AC-181566", "link_field": None}],
        "answer_field": "bank", "answer": 5}}),
    ("task", {"recipe": {"kind": "aggregation", "table": "invoices",
                         "filter_field": "company_id",
                         "filter_value": "C-942263", "total": 1017481,
                         "rendered_total": "1017481"}}),
    ("table", '{"name": "companies"}'),
    ("trajectory", "[1]"),
    ("trajectory", None),
    ("trajectory", {"revisions": [{"revision": 1}]}),
    ("trajectory", {"revisions": [{**_REVISION, "bogus": 1}]}),
    ("trajectory", {"revisions": [{**_REVISION,
                                   "steps": [{**_STEP, "bogus": 1}]}]}),
    ("trajectory", {"revisions": [{**_REVISION, "steps": [
        {key: _STEP[key] for key in _STEP if key != "payload"}]}]}),
    # Every key present, but a value not of its field's declared type.
    ("trajectory", {"step_count": "many"}),
    ("trajectory", {"revisions": [{**_REVISION, "revision": [1]}]}),
    ("trajectory", {"revisions": [{**_REVISION,
                                   "steps": [{**_STEP, "index": "x"}]}]}),
    ("report", '{"rows": [{}]}'),
    ("report", json.dumps({"categories": ["k"], "task_count": 1, "rows": [
        {"method": "GoalAct", "per_category": {"k": 1.0}, "overall": "x"}]})),
    ("report", json.dumps({"categories": ["k"], "task_count": 1, "rows": [
        {"method": "GoalAct", "per_category": {"k": True}, "overall": 1.0}]})),
    ("report", json.dumps({"categories": ["k"], "task_count": 1, "rows": [],
                           "notes": "x"})),
    ("report", json.dumps({"categories": ["k"], "task_count": 1, "rows": [
        {"method": "GoalAct", "per_category": {"k": 1.0}, "overall": 1.0,
         "notes": "x"}]})),
    ("exemplars", '{"nope": 1}'),
    ("config", '{"custom_skills": [{"name": "Drafting", "descripton": "x"}]}'),
    ("config", '{"ablations": "no_writing"}'),
    ("cassette", '{"key": "k", "response": 5}'),
    ("config", '{"backend": 5}'),
])
def test_malformed_input_files_exit_two_naming_the_file(tmp_path, capsys,
                                                        kind, text):
    says = _SAYS.get(text, "") if isinstance(text, str) else ""
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    config = tmp_path / "config.json"
    bad = {"config": config,
           "cassette": tmp_path / "cassette.jsonl",
           "rules": tmp_path / "rules.jsonl",
           "task": task_file,
           "table": next((fixtures / "tables").glob("*.json")),
           "trajectory": tmp_path / "trajectories.jsonl",
           "report": tmp_path / "report.json",
           "exemplars": tmp_path / "exemplars.jsonl"}[kind]
    recipe_row = isinstance(text, dict) \
        and isinstance(text.get("recipe"), dict)
    if not isinstance(text, str):
        # A well-formed document less one of its keys, or with the fields
        # `text` holds.
        doc, key = {
            "task": (json.loads(task_file.read_text(encoding="utf-8")),
                     "query"),
            "trajectory": (record_to_dict(Trajectory("t", "GoalAct")),
                           "llm_calls"),
        }[kind]
        if text is None:
            del doc[key]
        else:
            doc.update(text)
        text = json.dumps(doc)
    bad.write_text(text + "\n", encoding="utf-8")
    if kind == "exemplars":
        config.write_text(json.dumps({"exemplars_file": str(bad)}))
    args = {"trajectory": ["replay", "--trajectory", str(bad)],
            "report": ["report", "--results", str(bad)]}.get(
        kind, ["run", "--task", str(task_file)])
    args += {"config": ["--config", str(bad)],
             "exemplars": ["--config", str(config)],
             "cassette": ["--backend", f"replay:{bad}"],
             "rules": ["--backend", f"scripted:{bad}"]}.get(kind, [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration fault: ")
    line_delimited = kind in ("cassette", "rules", "trajectory", "exemplars")
    if recipe_row:
        task_id = json.loads(text)["id"]
        assert f"task {task_id} carries a malformed oracle recipe: " in err
    else:
        assert f"{bad}:1:" in err if line_delimited else f"{bad}: " in err
    assert says in err


@pytest.mark.parametrize("kind", ["trajectory", "recipe"])
def test_a_refusal_quotes_at_most_200_characters_of_a_value(tmp_path, capsys,
                                                            kind):
    huge = [0] * 1_000_000  # a 2 MB array
    if kind == "trajectory":
        bad = tmp_path / "trajectories.jsonl"
        doc = record_to_dict(Trajectory("t", "GoalAct"))
        bad.write_text(json.dumps({**doc, "final_answer": huge}) + "\n",
                       encoding="utf-8")
        args, named = ["replay", "--trajectory", str(bad)], (
            f"{bad}:1:", "final_answer must be")
    else:
        fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
        bad = next((fixtures / "tasks").glob("*.json"))
        doc = json.loads(bad.read_text(encoding="utf-8"))
        doc["recipe"]["answer"] = huge
        bad.write_text(json.dumps(doc), encoding="utf-8")
        args, named = ["run", "--task", str(bad)], (
            f"task {doc['id']} carries a malformed oracle recipe: ",
            "recipe field 'answer' holds [0, 0,")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in named)
    assert len(err.encode("utf-8")) < 1024


def _suite_refuses_its_last_recipe(tmp_path, capsys, edit,
                                   says="carries a malformed oracle recipe: "):
    """A suite whose last task's recipe `edit` changed exits 2 naming that
    task and saying `says` before its first run, writing nothing."""
    fixtures = _generate(tmp_path, capsys, seed=3, k=2, count=3)
    last = sorted((fixtures / "tasks").glob("*.json"))[-1]
    doc = json.loads(last.read_text(encoding="utf-8"))
    edit(doc["recipe"])
    last.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["suite", "--fixtures", str(fixtures), "--methods",
                 "goalact,react", "--out", str(out)]) == 2
    assert f"task {doc['id']} {says}" in capsys.readouterr().err
    assert not out.exists()


def test_a_suite_refuses_a_malformed_recipe_before_its_first_run(tmp_path,
                                                                 capsys):
    def keep_only_the_kind(recipe):
        del recipe["hops"], recipe["answer"], recipe["answer_field"]

    _suite_refuses_its_last_recipe(tmp_path, capsys, keep_only_the_kind)


def test_a_suite_refuses_a_recipe_value_that_is_not_a_string(tmp_path,
                                                             capsys):
    _suite_refuses_its_last_recipe(
        tmp_path, capsys, lambda recipe: recipe.update(answer=5))


def test_a_suite_refuses_a_task_with_no_recipe_before_its_first_run(tmp_path,
                                                                  capsys):
    _suite_refuses_its_last_recipe(tmp_path, capsys, dict.clear,
                                   says="carries no oracle recipe")


def test_a_suite_with_goalact_takes_ablations_in_any_method_order(tmp_path,
                                                                  capsys):
    from goalact.orchestrator import RunConfig
    from goalact.suite import config_hash

    fixtures = _generate(tmp_path, capsys, seed=5, k=2, count=1)
    config = tmp_path / "no-plan.json"
    config.write_text('{"ablations": ["no_global_plan"]}', encoding="utf-8")
    logs = {}
    for methods in ("goalact,ps", "ps,goalact"):
        out = tmp_path / methods.replace(",", "-")
        assert main(["suite", "--fixtures", str(fixtures), "--methods",
                     methods, "--config", str(config), "--out", str(out)]) == 0
        logs[methods] = [(out / "trajectories" / f"{method}.jsonl").read_text(
            encoding="utf-8") for method in ("GoalAct", "PlanAndSolve")]
    # The ablation reaches GoalAct alone, whichever method comes first.
    assert logs["goalact,ps"] == logs["ps,goalact"]
    goalact_log, ps_log = logs["ps,goalact"]
    assert '"purpose":"next_step"' in goalact_log
    assert '"purpose":"next_step"' not in ps_log
    # Without ablations the suite's config is still its first method's.
    out = tmp_path / "plain"
    assert main(["suite", "--fixtures", str(fixtures), "--methods",
                 "ps,goalact", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == config_hash(
        RunConfig(method="PlanAndSolve"), ["PlanAndSolve", "GoalAct"],
        "scripted:oracle")
    capsys.readouterr()
    # A suite that runs no GoalAct refuses them.
    assert main(["suite", "--fixtures", str(fixtures), "--methods", "ps,react",
                 "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (f"configuration fault: {config}: "
                                       "ablation switches only apply to "
                                       "GoalAct\n")


def test_a_config_its_own_check_refuses_is_not_called_malformed(tmp_path,
                                                                 capsys):
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    config, missing = tmp_path / "config.json", tmp_path / "nope.jsonl"
    for settings, message in (
            ({"exemplars_file": str(missing)},
             f"[Errno 2] No such file or directory: '{missing}'"),
            ({"max_iterations": 0}, "max_iterations must be at least 1")):
        config.write_text(json.dumps(settings))
        assert main(["run", "--task", str(task_file),
                     "--config", str(config)]) == 2
        assert capsys.readouterr().err == \
            f"configuration fault: {config}: {message}\n"


@pytest.mark.parametrize("flag, value, allowed", [
    ("k", -1, "in 1..5"), ("k", 0, "in 1..5"), ("k", 6, "in 1..5"),
    ("count", 0, "at least 1"), ("count", -3, "at least 1"),
], ids=["k=-1", "k=0", "k=6", "count=0", "count=-3"])
def test_generate_names_the_allowed_range_of_a_flag(tmp_path, capsys, flag,
                                                     value, allowed):
    out = tmp_path / "fixtures"
    assert main(["generate", "--seed", "1", f"--{flag}", str(value),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"configuration fault: {flag} must be {allowed}, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--jobs", "0"], "jobs must be at least 1, got 0"),
    (["--methods", "react,ReAct"],
     "the suite names a method more than once: ReAct, ReAct"),
    (["--methods", ","], "no methods given"),
    (["--backend", "nosuch"], "unknown backend spec 'nosuch'"),
    (["--backend", "http"], "the http backend needs GOALACT_API_BASE and "
     "GOALACT_MODEL set (and usually GOALACT_API_KEY)"),
])
def test_a_suite_of_no_jobs_or_a_method_named_twice_exits_two(
        tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.delenv("GOALACT_API_BASE", raising=False)
    monkeypatch.delenv("GOALACT_MODEL", raising=False)
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
    out = tmp_path / "run"
    assert main(["suite", "--fixtures", str(fixtures), *flags,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration fault: {message}\n"
    assert not out.exists()


def test_a_suite_over_an_empty_tasks_directory_exits_two(tmp_path, capsys):
    fixtures, out = tmp_path / "fixtures", tmp_path / "run"
    (fixtures / "tasks").mkdir(parents=True)
    assert main(["suite", "--fixtures", str(fixtures), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "configuration fault: the suite has no tasks to run\n"
    assert not out.exists()


def test_a_suite_that_holds_a_task_file_twice_exits_two_naming_the_id(
        tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=2)
    task_file = min((fixtures / "tasks").glob("*.json"))
    (fixtures / "tasks" / "zz-copy.json").write_bytes(task_file.read_bytes())
    out = tmp_path / "run"
    assert main(["suite", "--fixtures", str(fixtures), "--methods", "react",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration fault: the suite names a task id more than once: "
        f"{task_file.stem}\n")
    assert not out.exists()


def _write_rules(path, *rules):
    """A rules file of `rules`, one JSON document per line."""
    path.write_text("".join(json.dumps(rule) + "\n" for rule in rules),
                    encoding="utf-8")
    return path


def test_unmatched_scripted_rules_exit_three(tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    rules = tmp_path / "rules.jsonl"
    rules.write_text(json.dumps({"response": "x",
                                 "substrings": ["never-present-key"]}) + "\n")
    code = main(["run", "--task", str(task_file),
                 "--backend", f"scripted:{rules}"])
    capsys.readouterr()
    assert code == 3


def test_a_run_whose_planning_template_lost_a_slot_exits_three(
        tmp_path, capsys, monkeypatch):
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    template = planner.load_template().replace("{memory}", "")
    monkeypatch.setattr(planner, "load_template", lambda: template)
    planner._template_parts.cache_clear()
    try:
        assert main(["run", "--task", str(task_file)]) == 3
    finally:
        planner._template_parts.cache_clear()
    assert capsys.readouterr().err == \
        "run failed: template lost its {memory} marker\n"


class _Interrupting:
    def complete(self, request):
        raise KeyboardInterrupt


@pytest.mark.parametrize("ending", ["interrupted", "run-failed"])
def test_an_unfinished_run_leaves_no_finished_looking_directory(
        tmp_path, capsys, monkeypatch, ending):
    """`run` clears its directory before its run, as a suite does, so a run
    that never finishes leaves no earlier run's manifest, report or log."""
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    out = tmp_path / "run"
    argv = ["run", "--task", str(task_file), "--out", str(out)]
    assert main(argv) == 0
    assert _run_dir_files(out) == ["manifest.json", "report.json",
                                   "report.txt", "trajectories.jsonl"]
    if ending == "interrupted":
        monkeypatch.setattr(cli, "resolve_backend_factory",
                            lambda spec: lambda task: _Interrupting())
        with pytest.raises(KeyboardInterrupt):
            main([*argv, "--method", "react"])
    else:
        template = planner.load_template().replace("{memory}", "")
        monkeypatch.setattr(planner, "load_template", lambda: template)
        planner._template_parts.cache_clear()
        try:
            assert main(argv) == 3
        finally:
            planner._template_parts.cache_clear()
    capsys.readouterr()
    assert _run_dir_files(out) == []


@pytest.mark.parametrize("method, marker, reply, ending", [
    ("react", REACT_MARKER,
     json.dumps({"Thought": "Answer now.", "Action": "Finish[done]"}),
     (1, TERMINATION_FINISH)),
    # An integer past int()'s 4,300-digit conversion limit: a malformed plan.
    ("goalact", PLANNING_MARKER,
     '[{"Thinking": %s, "Action": "Finish"}]' % ("1" * 5000),
     (1, TERMINATION_FATAL)),
    # A lone surrogate, which UTF-8 cannot encode: an unusable reply.
    ("codeact", CODEACT_MARKER, 'return "x \ud800"', (1, TERMINATION_FATAL)),
], ids=["react-finishes", "over-long-integer", "lone-surrogate"])
def test_a_rules_file_run_ends_as_its_reply_decides_and_exits_zero(
        tmp_path, capsys, method, marker, reply, ending):
    """A plain rules file, one rule per family keyed on its marker alone,
    drives a run end to end; a reply the run cannot use ends it as data,
    not as a configuration fault."""
    fixtures = _generate(tmp_path, capsys, seed=3, k=2, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    rules = _write_rules(
        tmp_path / "rules.jsonl",
        {"name": "reply", "response": reply, "substrings": [marker]},
        {"name": "summary", "response": "The run is over.",
         "substrings": [SUMMARY_MARKER]})
    out = tmp_path / "run"
    assert main(["run", "--task", str(task_file), "--method", method,
                 "--backend", f"scripted:{rules}", "--out", str(out)]) == 0
    capsys.readouterr()
    (trajectory,) = read_trajectories(out / "trajectories.jsonl")
    assert (trajectory.step_count, trajectory.termination_reason) == ending


def test_python_dash_m_goalact_exits_with_mains_status(tmp_path, capsys):
    fixtures = _generate(tmp_path, capsys, seed=3, k=1, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    rules = _write_rules(tmp_path / "rules.jsonl",
                         {"response": "x", "substrings": ["never-present-key"]})
    argvs = {0: ["generate", "--seed", "1", "--out", str(tmp_path / "more")],
             2: ["generate", "--seed", "1", "--k", "0",
                 "--out", str(tmp_path / "none")],
             3: ["run", "--task", str(task_file),
                 "--backend", f"scripted:{rules}"]}
    src = str(Path(goalact.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # Side by side: each pays an interpreter start.
    children = {status: subprocess.Popen(
        [sys.executable, "-m", "goalact", *argv], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for status, argv in argvs.items()}
    try:
        for status, child in children.items():
            _, err = child.communicate(timeout=60)
            assert child.returncode == status, err
    finally:
        for child in children.values():
            child.kill()
            child.wait()


def test_cassette_replay_backend_through_the_cli(tmp_path, capsys):
    from goalact.backends import CassetteRecorder
    from goalact.generator import load_fixture
    from goalact.oracle import oracle_backend
    from goalact.orchestrator import RunConfig, run_task

    fixtures = _generate(tmp_path, capsys, seed=11, k=2, count=1)
    task_file = next((fixtures / "tasks").glob("*.json"))
    task, env = load_fixture(task_file)
    cassette = tmp_path / "cassette.jsonl"
    recorded = run_task(task, env, RunConfig(method="GoalAct"),
                        CassetteRecorder(oracle_backend(task), cassette))
    assert recorded.termination_reason == "finish"

    code = main(["run", "--task", str(task_file), "--method", "goalact",
                 "--backend", f"replay:{cassette}"])
    captured = capsys.readouterr()
    assert code == 0
    assert "s=1.0000" in captured.out

    # A different task has no entries in this cassette: hard miss, exit 3.
    other = _generate(tmp_path / "other", capsys, seed=12, k=2, count=1)
    other_file = next((other / "tasks").glob("*.json"))
    code = main(["run", "--task", str(other_file),
                 "--backend", f"replay:{cassette}"])
    capsys.readouterr()
    assert code == 3

    # A cassette that is not there: exit 2 before any run.
    missing = tmp_path / "missing.jsonl"
    assert main(["run", "--task", str(task_file),
                 "--backend", f"replay:{missing}"]) == 2
    assert capsys.readouterr().err == \
        f"configuration fault: cassette not found: {missing}\n"


def test_suite_with_jobs_flag_matches_serial(tmp_path, capsys):
    """Five methods over k-hop, writing and aggregation tasks write the same
    bytes at --jobs 1 and 3, plain and with a config that reads its own
    exemplars file and turns GoalAct's global plan off: the manifests
    differ only in their jobs key, and every log replays, every run
    finished."""
    for category, count in (("khop", 3), ("writing", 1), ("aggregation", 1)):
        fixtures = _generate(tmp_path, capsys, category=category, seed=5, k=2,
                             count=count)
    no_plan = tmp_path / "no-plan.json"
    no_plan.write_text(json.dumps({
        "exemplars_file": str(Path(goalact.__file__).parent / "prompts"
                              / "exemplars.jsonl"),
        "ablations": ["no_global_plan"]}), encoding="utf-8")
    for name, config in (("plain", []), ("no-plan", ["--config", str(no_plan)])):
        runs = {}
        for jobs in (1, 3):
            out = tmp_path / f"{name}-jobs{jobs}"
            assert main(["suite", "--fixtures", str(fixtures), "--methods",
                         "goalact,planandsolve,planandexecute,react,codeact",
                         *config, "--jobs", str(jobs), "--out", str(out)]) == 0
            runs[jobs] = {str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()}
        serial, parallel = (json.loads(runs[jobs].pop("manifest.json"))
                            for jobs in (1, 3))
        assert runs[1] == runs[3], name
        assert (serial.pop("jobs"), parallel.pop("jobs")) == (1, 3)
        assert serial == parallel, name
        logs = sorted(out.glob("trajectories/*.jsonl"))
        assert len(logs) == 5
        capsys.readouterr()
        for log in logs:
            assert main(["replay", "--trajectory", str(log)]) == 0
            assert [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("termination: ")] == \
                ["termination: finish"] * 5, (name, log.name)
