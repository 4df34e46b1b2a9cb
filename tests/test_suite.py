"""A suite keeps its work when a task's run raises a backend fault or is
interrupted."""

from __future__ import annotations

import gc
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from goalact import suite
from goalact.backends import ScriptedBackend
from goalact.cli import main
from goalact.errors import AuthFailure, CassetteMiss, FatalError, RuleMiss
from goalact.generator import (
    generate_aggregation_task,
    generate_khop_task,
    generate_task,
    generate_writing_task,
    save_fixture,
)
from goalact.oracle import oracle_backend
from goalact.orchestrator import (
    METHOD_GOALACT,
    METHOD_REACT,
    METHODS as ALL_METHODS,
    RunConfig,
)
from goalact.plan import Trajectory, read_trajectories
from goalact.suite import REPORTS, SUMMARY_FILES, run_suite

METHODS = [METHOD_GOALACT, METHOD_REACT]


def _pairs():
    return [generate_khop_task(seed=5, k=2), generate_aggregation_task(seed=5),
            generate_writing_task(seed=5)]


class _Raising:
    """A backend whose every call raises a fresh `error_class`."""

    def __init__(self, error_class):
        self.error_class = error_class

    def complete(self, request):
        raise self.error_class("scripted fault")


def _factory_failing(task_id: str, error_class):
    def factory(task):
        if task.id != task_id:
            return oracle_backend(task)
        if error_class is RuleMiss:
            return ScriptedBackend([])
        return _Raising(error_class)
    return factory


def _run(tmp_path, name, factory, jobs):
    out = tmp_path / name
    with pytest.raises((RuleMiss, CassetteMiss, AuthFailure)) as raised:
        run_suite(_pairs(), METHODS, RunConfig(), factory, out_dir=out,
                  jobs=jobs)
    return out, raised.value


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _run_dir_bytes(out):
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _assert_same_but_jobs(serial_out, parallel_out):
    """Both run directories hold the same bytes but for the manifest's jobs."""
    serial, parallel = (_run_dir_bytes(out)
                        for out in (serial_out, parallel_out))
    serial_manifest = json.loads(serial.pop("manifest.json"))
    parallel_manifest = json.loads(parallel.pop("manifest.json"))
    assert serial == parallel
    assert {**serial_manifest, "jobs": 2} == parallel_manifest


@pytest.mark.parametrize("error_class", [RuleMiss, CassetteMiss])
def test_a_task_local_miss_keeps_every_other_task(tmp_path, error_class):
    ids = sorted(task.id for task, _ in _pairs())
    failing = ids[1]
    outs = []
    for jobs in (1, 2):
        out, error = _run(tmp_path, f"jobs{jobs}",
                          _factory_failing(failing, error_class), jobs)
        assert isinstance(error, error_class)
        outs.append(out)
        for method in METHODS:
            runs = _lines(out / "trajectories" / f"{method}.jsonl")
            assert [run["task_id"] for run in runs] == ids
            by_id = {run["task_id"]: run for run in runs}
            # The failing task's partial trajectory is kept.
            assert by_id[failing]["termination_reason"] == "fatal_error"
            assert by_id[failing]["final_answer"] is None
            assert all(by_id[i]["termination_reason"] == "finish"
                       for i in ids if i != failing)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == [
            {"error": error_class.__name__, "method": method,
             "task_id": failing} for method in METHODS]
        # The report is that of a clean suite over the other tasks.
        clean = tmp_path / f"clean{jobs}"
        run_suite([pair for pair in _pairs() if pair[0].id != failing],
                  METHODS, RunConfig(), oracle_backend, out_dir=clean)
        assert (out / "report.json").read_bytes() == \
            (clean / "report.json").read_bytes()
    _assert_same_but_jobs(*outs)


def test_an_auth_failure_stops_the_suite_at_its_task(tmp_path):
    ids = sorted(task.id for task, _ in _pairs())
    outs = []
    for jobs in (1, 2):
        out, error = _run(tmp_path, f"jobs{jobs}",
                          _factory_failing(ids[1], AuthFailure), jobs)
        assert isinstance(error, AuthFailure)
        outs.append(out)
        runs = _lines(out / "trajectories" / f"{METHOD_GOALACT}.jsonl")
        # The task before it finished, its own run is partial, and no later
        # task or method is kept.
        assert [run["task_id"] for run in runs] == ids[:2]
        assert [run["termination_reason"] for run in runs] == \
            ["finish", "fatal_error"]
        assert not (out / "trajectories" / f"{METHOD_REACT}.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == [
            {"error": "AuthFailure", "method": METHOD_GOALACT,
             "task_id": ids[1]}]
        report = json.loads((out / "report.json").read_text())
        assert report["task_count"] == 1
        assert [row["method"] for row in report["rows"]] == [METHOD_GOALACT]
    _assert_same_but_jobs(*outs)


class _MissingAt:
    """A task's oracle, but for its `call`-th call, which raises RuleMiss."""

    def __init__(self, task, call):
        self.oracle, self.left = oracle_backend(task), call

    def complete(self, request):
        self.left -= 1
        if self.left == 0:
            raise RuleMiss("scripted miss")
        return self.oracle.complete(request)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_suite_keeps_only_the_manifest_entry_of_a_failed_run(monkeypatch,
                                                               tmp_path,
                                                               jobs):
    """Every run of 60 tasks x 5 methods misses at its second call: when the
    suite writes its directory it holds the first fault's trajectory and at
    most one more, not one per failed run.  They are counted with the cyclic
    collector off, so a failed run must be freed by its references alone."""
    pairs = [generate_task(category, seed) for seed in range(10)
             for category in ("1hop", "2hop", "3hop", "5hop", "writing",
                              "aggregation")]
    ids = sorted(task.id for task, _ in pairs)
    config_hash = suite.config_hash  # called as the manifest is written

    def held() -> int:
        return sum(isinstance(o, Trajectory) for o in gc.get_objects())

    def counting(*args, **kwargs):
        alive.append(held())
        return config_hash(*args, **kwargs)

    monkeypatch.setattr(suite, "config_hash", counting)
    gc.collect()
    gc.disable()
    try:
        out, alive = tmp_path / "run", [held()]
        with pytest.raises(RuleMiss) as raised:
            run_suite(pairs, ALL_METHODS, RunConfig(),
                      lambda task: _MissingAt(task, 2), out_dir=out, jobs=jobs)
    finally:
        gc.enable()
    assert len(alive) == 2 and alive[1] - alive[0] <= 2
    assert json.loads((out / "manifest.json").read_text())["failures"] == [
        {"error": "RuleMiss", "method": method, "task_id": task_id}
        for method in ALL_METHODS for task_id in ids]
    first = raised.value.trajectory
    assert (first.task_id, first.method) == (ids[0], ALL_METHODS[0])


def test_a_clean_suite_writes_no_failure_list(tmp_path):
    run_suite(_pairs(), METHODS, RunConfig(), oracle_backend,
              out_dir=tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert "failures" not in manifest


def test_a_suite_that_names_a_method_twice_is_refused_before_any_run(
        tmp_path):
    out = tmp_path / "run"
    with pytest.raises(FatalError, match="names a method more than once: "
                       "ReAct, GoalAct, ReAct"):
        run_suite(_pairs(), [METHOD_REACT, METHOD_GOALACT, METHOD_REACT],
                  RunConfig(), oracle_backend, out_dir=out)
    assert not out.exists()


def test_a_suite_that_holds_a_task_id_twice_is_refused_before_any_run(
        tmp_path):
    out = tmp_path / "run"
    pairs = _pairs()
    with pytest.raises(FatalError, match="names a task id more than once: "
                       f"{pairs[1][0].id}$"):
        run_suite([*pairs, pairs[1]], [METHOD_REACT], RunConfig(),
                  oracle_backend, out_dir=out)
    assert not out.exists()


@pytest.mark.parametrize("jobs", [0, -1])
def test_a_suite_of_fewer_than_one_job_is_refused_before_any_run(tmp_path,
                                                                  jobs):
    out = tmp_path / "run"
    with pytest.raises(FatalError, match=f"jobs must be at least 1, got {jobs}"):
        run_suite(_pairs(), METHODS, RunConfig(), oracle_backend, out_dir=out,
                  jobs=jobs)
    assert not out.exists()


def test_a_suite_with_no_finished_task_exits_three_with_its_runs(
        tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    for task, env in _pairs():
        save_fixture(task, env, fixtures)
    rules = tmp_path / "rules.jsonl"
    rules.write_text(json.dumps({"response": "x",
                                 "substrings": ["never-present-key"]}) + "\n")
    out = tmp_path / "run"
    code = main(["suite", "--fixtures", str(fixtures), "--methods",
                 "goalact,react", "--backend", f"scripted:{rules}",
                 "--out", str(out)])
    assert code == 3
    assert "backend fault" in capsys.readouterr().err
    for method in METHODS:
        assert len(_lines(out / "trajectories" / f"{method}.jsonl")) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["failures"]) == 6
    # No task finished, so there is nothing to report.
    assert not (out / "report.json").exists()
    assert not (out / "report.txt").exists()


def test_a_run_that_raised_keeps_its_line_and_failure_but_no_report(
        tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    task, env = generate_khop_task(seed=3, k=2)
    task_file = save_fixture(task, env, fixtures)
    out, suite_out = tmp_path / "run", tmp_path / "suite"
    assert main(["run", "--task", str(task_file), "--method", "react",
                 "--out", str(out)]) == 0
    assert all((out / name).exists() for name in SUMMARY_FILES)
    rules = tmp_path / "rules.jsonl"
    rules.write_text(json.dumps({"response": "x",
                                 "substrings": ["never-present-key"]}) + "\n")
    capsys.readouterr()
    assert main(["run", "--task", str(task_file), "--method", "react",
                 "--backend", f"scripted:{rules}", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("backend fault: ")
    [run] = _lines(out / "trajectories.jsonl")
    assert (run["task_id"], run["termination_reason"]) == \
        (task.id, "fatal_error")
    # The manifest lists the failure as a suite over the same inputs does,
    # and the earlier run's report is gone.
    assert main(["suite", "--fixtures", str(fixtures), "--methods", "react",
                 "--backend", f"scripted:{rules}", "--out",
                 str(suite_out)]) == 3
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [{"error": "RuleMiss", "method": METHOD_REACT,
                         "task_id": task.id}]
    assert failures == \
        json.loads((suite_out / "manifest.json").read_text())["failures"]
    assert not any((out / name).exists() for name in REPORTS)


@pytest.mark.parametrize("jobs, pools", [(1, 0), (2, 1)])
def test_a_suite_makes_one_thread_pool_and_only_for_jobs(monkeypatch, jobs,
                                                         pools):
    made = []

    def counting_pool(*args, **kwargs):
        made.append(ThreadPoolExecutor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(suite, "ThreadPoolExecutor", counting_pool)
    report = run_suite(_pairs(), ALL_METHODS, RunConfig(), oracle_backend,
                       jobs=jobs)
    assert [row.method for row in report.rows] == list(ALL_METHODS)
    assert len(made) == pools


def _interrupt(out, jobs):
    """Run a suite into `out` that is interrupted in ReAct's second task."""
    ids = sorted(task.id for task, _ in _pairs())
    calls = {task_id: 0 for task_id in ids}

    def factory(task):
        # Methods run one after another, so a task's second call is ReAct's.
        calls[task.id] += 1
        if (task.id, calls[task.id]) == (ids[1], 2):
            return _Raising(KeyboardInterrupt)
        return oracle_backend(task)

    with pytest.raises(KeyboardInterrupt):
        run_suite(_pairs(), METHODS, RunConfig(), factory, out_dir=out,
                  jobs=jobs)
    return ids


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_interrupt_keeps_every_line_written_before_it(tmp_path, jobs):
    out = tmp_path / "run"
    ids = _interrupt(out, jobs)
    logs = {method: list(read_trajectories(
        out / "trajectories" / f"{method}.jsonl")) for method in METHODS}
    assert [run.task_id for run in logs[METHOD_GOALACT]] == ids
    assert [run.task_id for run in logs[METHOD_REACT]] == ids[:1]
    assert all(run.termination_reason == "finish"
               for runs in logs.values() for run in runs)


def test_an_interrupted_suite_leaves_no_earlier_manifest_or_report(tmp_path):
    out = tmp_path / "run"
    run_suite(_pairs(), METHODS, RunConfig(), oracle_backend, out_dir=out)
    assert all((out / name).exists() for name in SUMMARY_FILES)
    _interrupt(out, jobs=1)
    assert not any((out / name).exists() for name in SUMMARY_FILES)
    assert len(list(read_trajectories(
        out / "trajectories" / f"{METHOD_REACT}.jsonl"))) == 1


def test_a_suite_into_a_used_directory_leaves_a_fresh_runs_bytes(tmp_path):
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    run_suite(_pairs(), METHODS, RunConfig(), oracle_backend, out_dir=again)
    for out in (again, fresh):
        run_suite(_pairs(), [METHOD_GOALACT], RunConfig(), oracle_backend,
                  out_dir=out)
    # No ReAct log of the earlier suite is left beside a GoalAct manifest.
    assert _run_dir_bytes(again) == _run_dir_bytes(fresh)
    assert [p.name for p in (again / "trajectories").iterdir()] == \
        [f"{METHOD_GOALACT}.jsonl"]


def test_a_held_run_lets_at_most_jobs_later_runs_finish(monkeypatch,
                                                        tmp_path):
    """While the first task's run is held, the workers run ahead by at most
    `jobs` later tasks instead of finishing all of them."""
    jobs = 2
    pairs = [generate_khop_task(seed=seed, k=1) for seed in range(1, 21)]
    first = min(task.id for task, _ in pairs)
    finished: list[str] = []
    all_others = threading.Event()
    seen_while_held: list[int] = []
    original = suite.run_task

    def holding_run_task(task, *args):
        if task.id == first:
            # Held until every other run finished, or long enough that any
            # run the suite had started would have.
            all_others.wait(timeout=0.5)
            seen_while_held.append(len(finished))
        trajectory = original(task, *args)
        if task.id != first:
            finished.append(task.id)
            if len(finished) == len(pairs) - 1:
                all_others.set()
        return trajectory

    monkeypatch.setattr(suite, "run_task", holding_run_task)
    out = tmp_path / "run"
    run_suite(pairs, [METHOD_REACT], RunConfig(), oracle_backend, out_dir=out,
              jobs=jobs)
    assert seen_while_held and seen_while_held[0] <= jobs
    assert [run.task_id for run in read_trajectories(
        out / "trajectories" / f"{METHOD_REACT}.jsonl")] == \
        sorted(task.id for task, _ in pairs)
