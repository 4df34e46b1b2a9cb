"""Benchmark suite runner: tasks x methods -> trajectories, report, manifest.

Everything written into a run directory is free of timestamps and absolute
paths, so re-running with the same manifest against a scripted or cassette
backend reproduces every artifact byte for byte.

The suite runs each method in turn over every task in task-id order: on
the calling thread at `jobs` 1, else on the one thread pool it makes.

A run that raises a backend fault does not throw the suite's work away:
`run_recorded`, which `goalact run` uses too, returns its partial trajectory
and the fault.  A RuleMiss or CassetteMiss ends only its own task; an
AuthFailure, which every later call would repeat, stops the suite at its
task.  The run directory then holds every finished and partial trajectory,
a report over the tasks that finished under every method run, and a
manifest that lists the failures: once a failed run's line is written, the
suite keeps only that entry, and the first fault, which it raises last.
Which runs are kept depends only on task order, never on `jobs`.

Each run's trajectory line is written to its method's log as soon as every
earlier task's line is.  At `jobs` N > 1 at most N runs are in flight
beyond the one whose line the suite waits to write, and the next starts
only once that line is written, so a slow run holds back at most N
finished lines.  The manifest and the reports are written last.
Before its first line the suite clears the directory as `goalact run` does
(`clear_run_dir`), so no log of a method or run it did not make survives,
and a directory without `manifest.json` holds an unfinished suite.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext, suppress
from itertools import islice
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

# The files a run directory gains once its runs are done, written last.
REPORTS = {"report.txt": render_report_text, "report.json": render_report_json}
SUMMARY_FILES = ("manifest.json", *REPORTS)


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
        if not cassette.exists():
            return lambda task: recorder
        replay = CassetteReplayBackend(cassette, fallback=recorder)
        recorder.entries = replay.entries  # it records only what replay lacks
        return lambda task: replay
    if spec.startswith("replay:"):
        replay = CassetteReplayBackend(Path(spec.split(":", 1)[1]))
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
    doc = {**dataclasses.asdict(config), "ablations": sorted(config.ablations),
           "methods": list(methods), "backend": backend_spec}
    canonical = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def score_trajectory(task: Task, trajectory: Trajectory) -> TaskScore:
    return success_rate(task.key_answers, trajectory.final_answer or "",
                        task_id=task.id)


def run_recorded(task: Task, env: ToolEnvironment, config: RunConfig,
                 backend: Any) -> tuple[Trajectory, Optional[BackendError]]:
    """Run one task; a run that raised a backend fault a run directory
    records returns its partial trajectory and the fault."""
    try:
        return run_task(task, env, config, backend), None
    except (AuthFailure, RuleMiss, CassetteMiss) as exc:
        return exc.trajectory, exc


def _in_order(pool: ThreadPoolExecutor, fn: Callable[[Any], Any],
              items: Sequence[Any], ahead: int) -> Iterator[Any]:
    """`fn` of each item, in order, run on `pool`: at most `ahead` calls
    are in flight beyond the one whose result is awaited, and one more is
    submitted only once the consumer has taken a result."""
    rest = iter(items)
    pending = deque(pool.submit(fn, item)
                    for item in islice(rest, ahead + 1))
    while pending:
        yield pending.popleft().result()
        pending.extend(pool.submit(fn, item) for item in islice(rest, 1))


def run_suite(tasks_with_envs: Sequence[tuple[Task, ToolEnvironment]],
              methods: Sequence[str], config: RunConfig,
              backend_factory: BackendFactory, out_dir: Optional[Path] = None,
              backend_spec: str = "scripted:oracle",
              jobs: int = 1) -> SuiteReport:
    """Run every method over every task, in task-id order; optionally
    persist run artifacts.  Raises the first fault, after writing the run
    directory, when a run raised one (see the module docstring)."""
    if not tasks_with_envs:
        raise FatalError("the suite has no tasks to run")
    if not methods:
        raise FatalError("the suite has no methods to run")
    if len(set(methods)) < len(methods):
        raise FatalError("the suite names a method more than once: "
                         + ", ".join(methods))
    categories = {task.id: task.category for task, _ in tasks_with_envs}
    if len(categories) < len(tasks_with_envs):
        ids = [task.id for task, _ in tasks_with_envs]
        raise FatalError("the suite names a task id more than once: "
                         + next(i for i in ids if ids.count(i) > 1))
    if jobs < 1:
        raise FatalError(f"jobs must be at least 1, got {jobs}")
    ordered = sorted(tasks_with_envs, key=lambda pair: pair[0].id)
    if out_dir is not None:
        out_dir = Path(out_dir)
        clear_run_dir(out_dir)
        (out_dir / "trajectories").mkdir(parents=True, exist_ok=True)
    runs: dict[str, list[TaskScore]] = {}
    failures, first = [], None  # the manifest's entries; the first fault
    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        for method in methods:
            scores = runs[method] = []
            method_config = config.for_method(method)

            def one(pair: tuple[Task, ToolEnvironment]) -> tuple[
                    Optional[str], Optional[TaskScore], Optional[BackendError]]:
                task, env = pair
                trajectory, fault = run_recorded(task, env, method_config,
                                                 backend_factory(task))
                line = encode_trajectory(trajectory) if out_dir else None
                return (line, None if fault
                        else score_trajectory(task, trajectory), fault)

            log = nullcontext() if out_dir is None else open(
                out_dir / "trajectories" / f"{method}.jsonl", "w",
                encoding="utf-8")
            with log as handle:
                for (task, _), (line, score, fault) in zip(ordered, (
                        _in_order(pool, one, ordered, jobs) if pool
                        else map(one, ordered))):
                    if handle is not None:
                        handle.write(line + "\n")
                    if fault is None:
                        scores.append(score)
                        continue
                    failures.append((task.id, method, type(fault).__name__))
                    first = first or fault
                    if fault is not first:  # its traceback's frames hold it
                        fault.__traceback__ = None
                    if isinstance(fault, AuthFailure):
                        break  # every later call would repeat it
                else:
                    continue  # every task ran: on to the next method
            break  # an AuthFailure stops the suite
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    finished = set.intersection(*({score.task_id for score in scores}
                                  for scores in runs.values()))
    report = aggregate({
        method: [s for s in scores if s.task_id in finished]
        for method, scores in runs.items()}, categories) \
        if finished else None

    if out_dir is not None:
        write_run_dir(out_dir, report, config, methods, backend_spec,
                      sorted(categories), jobs=jobs, failures=failures)
    if first is not None:
        raise first
    return report


def clear_run_dir(out_dir: Path) -> None:
    """Delete what a suite or `goalact run` writes into `out_dir`, and
    `trajectories/` if that leaves it empty."""
    logs = out_dir / "trajectories"
    for path in [*logs.glob("*.jsonl"), out_dir / "trajectories.jsonl",
                 *map(out_dir.joinpath, SUMMARY_FILES)]:
        path.unlink(missing_ok=True)
    with suppress(OSError):  # absent, or holding other files
        logs.rmdir()


def write_run_dir(out_dir: Path, report: Optional[SuiteReport],
                  config: RunConfig, methods: Sequence[str], backend_spec: str,
                  task_ids: Sequence[str], jobs: Optional[int] = None,
                  failures: Sequence[tuple[str, str, str]] = ()) -> None:
    """Finish a run directory that `clear_run_dir` cleared and whose
    trajectory logs are written: write `manifest.json`, then `report.txt`
    and `report.json` when there is a report.  The manifest holds a
    `jobs` key only when `jobs` is given, and a `failures` list only when
    there are (task id, method, error kind) `failures`."""
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
            {"task_id": task_id, "method": method, "error": error}
            for task_id, method, error in failures]
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    if report is not None:
        for name, render in REPORTS.items():
            (out_dir / name).write_text(render(report), encoding="utf-8")
