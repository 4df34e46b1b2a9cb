"""Benchmark suite runner: tasks x methods -> trajectories, report, manifest.

Everything written into a run directory is free of timestamps and absolute
paths, so re-running with the same manifest against a scripted or cassette
backend reproduces every artifact byte for byte.

A run that raises a backend fault does not throw the suite's work away.  A
RuleMiss or CassetteMiss ends only its own task; an AuthFailure, which every
later call would repeat, stops the suite at its task.  The run directory
then holds every finished and partial trajectory, a report over the tasks
that finished under every method run, and a manifest that lists the
failures, and the first failure is raised.  Which runs are kept depends only
on task order, never on `jobs`.

Each run's trajectory line is written to its method's log as soon as every
earlier task's line is, so the suite holds no finished run beyond the ones
its workers are making.  The manifest and the reports are written last.
Before its first line the suite deletes them and every method log an
earlier run left, so no log of a method it does not run survives, and a
directory without `manifest.json` holds an unfinished suite.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from .backends import (
    CassetteRecorder,
    CassetteReplayBackend,
    HttpChatBackend,
    ScriptedBackend,
    load_rules_file,
)
from .environment import ToolEnvironment
from .errors import AuthFailure, BackendError, CassetteMiss, FatalError, RuleMiss
from .evaluation import (
    SuiteReport,
    TaskScore,
    aggregate,
    render_report_json,
    render_report_text,
    success_rate,
)
from .generator import Task
from .oracle import oracle_backend
from .orchestrator import RunConfig, run_task
from .plan import Trajectory, encode_trajectory
from .planner import PROMPT_VERSION

BackendFactory = Callable[[Task], Any]

ENV_ENDPOINT = "GOALACT_API_BASE"
ENV_API_KEY = "GOALACT_API_KEY"
ENV_MODEL = "GOALACT_MODEL"

# Faults of one task's run that leave the suite's other tasks to run.
TASK_LOCAL_FAULTS = (RuleMiss, CassetteMiss)

# The files a run directory gains once its runs are done, written last.
REPORTS = {"report.txt": render_report_text, "report.json": render_report_json}
SUMMARY_FILES = ("manifest.json", *REPORTS)


@dataclass(frozen=True)
class TaskFailure:
    """A run that raised; `error.trajectory` is its partial trajectory."""

    method: str
    task_id: str
    error: BackendError

    def stops_suite(self) -> bool:
        return not isinstance(self.error, TASK_LOCAL_FAULTS)


# One run's (encoded trajectory line, score, failure): a finished run has a
# score and no failure, a run that raised its partial trajectory's line and
# its failure.
Outcome = tuple[str, Optional[TaskScore], Optional[TaskFailure]]


def resolve_backend_factory(spec: str) -> BackendFactory:
    """Map a backend spec string to a per-task backend factory.

    Supported specs: scripted:oracle, scripted:<rules-file>, http,
    record:<cassette>, replay:<cassette>.
    """
    if spec == "scripted:oracle":
        return oracle_backend
    if spec.startswith("scripted:"):
        rules_path = Path(spec.split(":", 1)[1])
        if not rules_path.exists():
            raise FatalError(f"scripted rules file not found: {rules_path}")
        rules = load_rules_file(rules_path)
        return lambda task: ScriptedBackend(rules, label=str(rules_path))
    if spec == "http":
        client = _http_backend_from_env()
        return lambda task: client
    if spec.startswith("record:"):
        cassette = Path(spec.split(":", 1)[1])
        recorder = CassetteRecorder(_http_backend_from_env(), cassette)
        return lambda task: recorder
    if spec.startswith("replay:"):
        cassette = Path(spec.split(":", 1)[1])
        if not cassette.exists():
            raise FatalError(f"cassette not found: {cassette}")
        replay = CassetteReplayBackend(cassette)
        return lambda task: replay
    raise FatalError(f"unknown backend spec {spec!r}")


def _http_backend_from_env() -> HttpChatBackend:
    endpoint = os.environ.get(ENV_ENDPOINT)
    api_key = os.environ.get(ENV_API_KEY, "")
    model = os.environ.get(ENV_MODEL, "")
    if not endpoint or not model:
        raise FatalError(
            f"the http backend needs {ENV_ENDPOINT} and {ENV_MODEL} set "
            f"(and usually {ENV_API_KEY})")
    return HttpChatBackend(endpoint=endpoint, api_key=api_key, model=model)


def config_hash(config: RunConfig, methods: Sequence[str],
                backend_spec: str) -> str:
    doc = dataclasses.asdict(config)
    doc["ablations"] = sorted(config.ablations)
    doc["methods"] = list(methods)
    doc["backend"] = backend_spec
    canonical = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def score_trajectory(task: Task, trajectory: Trajectory) -> TaskScore:
    return success_rate(task.key_answers, trajectory.final_answer or "",
                        task_id=task.id)


def run_method_over_tasks(method: str,
                          jobs_input: Sequence[tuple[Task, ToolEnvironment]],
                          config: RunConfig, backend_factory: BackendFactory,
                          jobs: int = 1) -> Iterator[Outcome]:
    """Run one method over every task, ordered deterministically by task id.

    Yields each run's outcome in task order.  A failure that stops the
    suite is the last outcome: at `jobs` > 1 no task not yet started runs,
    and no later task's run is yielded.
    """
    ordered = sorted(jobs_input, key=lambda pair: pair[0].id)
    method_config = config.for_method(method)

    def one(pair: tuple[Task, ToolEnvironment]) -> Outcome:
        task, env = pair
        try:
            trajectory = run_task(task, env, method_config,
                                  backend_factory(task))
        except (AuthFailure, *TASK_LOCAL_FAULTS) as exc:
            return (encode_trajectory(exc.trajectory), None,
                    TaskFailure(method, task.id, exc))
        return (encode_trajectory(trajectory),
                score_trajectory(task, trajectory), None)

    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        for outcome in pool.map(one, ordered) if pool else map(one, ordered):
            yield outcome
            if outcome[2] is not None and outcome[2].stops_suite():
                return
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def run_suite(tasks_with_envs: Sequence[tuple[Task, ToolEnvironment]],
              methods: Sequence[str], config: RunConfig,
              backend_factory: BackendFactory, out_dir: Optional[Path] = None,
              backend_spec: str = "scripted:oracle",
              jobs: int = 1) -> SuiteReport:
    """Run every method over every task; optionally persist run artifacts.

    Raises the first failure, after writing the run directory, when a run
    raised a backend fault (see the module docstring).
    """
    if not tasks_with_envs:
        raise FatalError("the suite has no tasks to run")
    if not methods:
        raise FatalError("the suite has no methods to run")
    categories = {task.id: task.category for task, _ in tasks_with_envs}
    if out_dir is not None:
        out_dir = Path(out_dir)
        logs = out_dir / "trajectories"
        logs.mkdir(parents=True, exist_ok=True)
        for path in [*logs.glob("*.jsonl"), *map(out_dir.joinpath,
                                                 SUMMARY_FILES)]:
            path.unlink(missing_ok=True)
    runs: dict[str, list[TaskScore]] = {}
    failures: list[TaskFailure] = []
    for method in methods:
        scores = runs[method] = []
        log = nullcontext() if out_dir is None else open(
            out_dir / "trajectories" / f"{method}.jsonl", "w",
            encoding="utf-8")
        with log as handle, closing(run_method_over_tasks(
                method, tasks_with_envs, config, backend_factory,
                jobs=jobs)) as outcomes:
            for line, score, failure in outcomes:
                if handle is not None:
                    handle.write(line + "\n")
                if failure is None:
                    scores.append(score)
                else:
                    failures.append(failure)
        if failures and failures[-1].stops_suite():
            break
    finished = set.intersection(*({score.task_id for score in scores}
                                  for scores in runs.values()))
    report = aggregate({
        method: [s for s in scores if s.task_id in finished]
        for method, scores in runs.items()}, categories) \
        if finished else None

    if out_dir is not None:
        write_run_dir(out_dir, report, config, methods, backend_spec,
                      sorted(categories), jobs=jobs, failures=failures)
    if failures:
        raise failures[0].error
    return report


def write_run_dir(out_dir: Path, report: Optional[SuiteReport],
                  config: RunConfig, methods: Sequence[str], backend_spec: str,
                  task_ids: Sequence[str], jobs: Optional[int] = None,
                  failures: Sequence[TaskFailure] = ()) -> None:
    """Finish a run directory whose trajectory logs are written: write
    `manifest.json`, then `report.txt` and `report.json` when there is a
    report.  The manifest holds a `jobs` key only when `jobs` is given, and
    a `failures` list (task id, method, error kind) only when there are
    failures."""
    manifest: dict[str, Any] = {
        "config_hash": config_hash(config, methods, backend_spec),
        "backend": backend_spec,
        "methods": list(methods),
        "prompt_version": PROMPT_VERSION,
        "task_ids": list(task_ids),
    }
    if jobs is not None:
        manifest["jobs"] = jobs
    if failures:
        manifest["failures"] = [
            {"task_id": f.task_id, "method": f.method,
             "error": type(f.error).__name__} for f in failures]
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    if report is not None:
        for name, render in REPORTS.items():
            (out_dir / name).write_text(render(report), encoding="utf-8")
