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

`write_runs`, the one writer of a suite's and `goalact run`'s directory,
clears it before the first run, so no log of a method or run it did not
make survives and a directory without `manifest.json` holds an unfinished
run or suite.  It writes each run's line as soon as every earlier task's
line is, and the manifest and the reports last.  At `jobs` N > 1 at most N
runs are in flight beyond the one whose line the suite waits to write, and
the next starts only once that line is written, so a slow run holds back
at most N finished lines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, suppress
from itertools import chain, islice
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
# A run as `write_runs` takes it: method, task id, trajectory line (None
# when no log is written), score (None for a run that raised) and fault.
Outcome = tuple[str, str, Optional[str], Optional[TaskScore],
                Optional[BackendError]]

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
    write their run directory.  Raises the first fault, after writing the
    run directory, when a run raised one (see the module docstring)."""
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
    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None

    def outcomes(method: str) -> Iterator[Outcome]:
        method_config = config.for_method(method)

        def one(pair: tuple[Task, ToolEnvironment]) -> Outcome:
            task, env = pair
            trajectory, fault = run_recorded(task, env, method_config,
                                             backend_factory(task))
            return (method, task.id,
                    encode_trajectory(trajectory) if out_dir else None,
                    None if fault else score_trajectory(task, trajectory),
                    fault)

        return _in_order(pool, one, ordered, jobs) if pool \
            else map(one, ordered)

    try:
        return write_runs(out_dir, chain.from_iterable(map(outcomes, methods)),
                          config, methods, backend_spec, categories, jobs=jobs)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def write_runs(out_dir: Optional[Path], outcomes: Iterator[Outcome],
               config: RunConfig, methods: Sequence[str], backend_spec: str,
               categories: dict[str, str], jobs: Optional[int] = None,
               log: Optional[str] = None) -> SuiteReport:
    """Write the run directory `out_dir` of `outcomes`, taken one at a time
    and kept as the module docstring says, and return their report; with no
    `out_dir`, write nothing.  First delete what a suite or `goalact run`
    writes there.  Each line goes to its method's log, opened at its first
    outcome, or to the one log `out_dir / log` when that is named.  The
    manifest holds `jobs` when it is given."""
    if out_dir is not None:
        out_dir = Path(out_dir)
        log_dir = out_dir / "trajectories"
        for path in [*log_dir.glob("*.jsonl"), out_dir / "trajectories.jsonl",
                     *map(out_dir.joinpath, SUMMARY_FILES)]:
            path.unlink(missing_ok=True)
        with suppress(OSError):  # absent, or holding other files
            log_dir.rmdir()
        (out_dir if log else log_dir).mkdir(parents=True, exist_ok=True)
    runs: dict[str, list[TaskScore]] = {}
    failures, first = [], None  # the manifest's entries; the first fault
    with ExitStack() as opened:
        for method, task_id, line, score, fault in outcomes:
            if method not in runs:
                if out_dir is not None and (log is None or not runs):
                    opened.close()  # the last method's log
                    handle = opened.enter_context(open(
                        out_dir / (log or f"trajectories/{method}.jsonl"),
                        "w", encoding="utf-8"))
                runs[method] = []
            if out_dir is not None:
                handle.write(line + "\n")
            if fault is None:
                runs[method].append(score)
                continue
            failures.append((task_id, method, type(fault).__name__))
            first = first or fault
            if fault is not first:  # its traceback's frames hold it
                fault.__traceback__ = None
            if isinstance(fault, AuthFailure):
                break  # every later call would repeat it
    finished = set.intersection(*({score.task_id for score in scores}
                                  for scores in runs.values()))
    report = aggregate({
        method: [s for s in scores if s.task_id in finished]
        for method, scores in runs.items()}, categories) \
        if finished else None

    if out_dir is not None:
        manifest: dict[str, Any] = {
            "config_hash": config_hash(config, methods, backend_spec),
            "backend": backend_spec,
            "methods": list(methods),
            "prompt_version": PROMPT_VERSION,
            "task_ids": sorted(categories),
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
    if first is not None:
        raise first
    return report
