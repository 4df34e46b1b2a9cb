"""Benchmark suite runner: tasks x methods -> trajectories, report, manifest.

Everything written into a run directory is free of timestamps and absolute
paths, so re-running with the same manifest against a scripted or cassette
backend reproduces every artifact byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .backends import (
    CassetteRecorder,
    CassetteReplayBackend,
    HttpChatBackend,
    ScriptedBackend,
    load_rules_file,
)
from .environment import ToolEnvironment
from .errors import FatalError
from .evaluation import (
    SuiteReport,
    TaskScore,
    aggregate,
    merge_reports,
    render_report_json,
    render_report_text,
    success_rate,
)
from .generator import Task
from .oracle import oracle_backend
from .orchestrator import METHOD_GOALACT, RunConfig, run_task
from .plan import Trajectory, write_trajectories

BackendFactory = Callable[[Task], Any]

ENV_ENDPOINT = "GOALACT_API_BASE"
ENV_API_KEY = "GOALACT_API_KEY"
ENV_MODEL = "GOALACT_MODEL"


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
                          jobs: int = 1
                          ) -> tuple[list[Trajectory], list[TaskScore]]:
    """Run one method over every task, ordered deterministically by task id."""
    ordered = sorted(jobs_input, key=lambda pair: pair[0].id)
    method_config = dataclasses.replace(
        config, method=method,
        ablations=config.ablations if method == METHOD_GOALACT else frozenset())

    def one(pair: tuple[Task, ToolEnvironment]) -> Trajectory:
        task, env = pair
        return run_task(task, env, method_config, backend_factory(task))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            trajectories = list(pool.map(one, ordered))
    else:
        trajectories = [one(pair) for pair in ordered]
    scores = [score_trajectory(task, traj)
              for (task, _), traj in zip(ordered, trajectories)]
    return trajectories, scores


def run_suite(tasks_with_envs: Sequence[tuple[Task, ToolEnvironment]],
              methods: Sequence[str], config: RunConfig,
              backend_factory: BackendFactory, out_dir: Optional[Path] = None,
              backend_spec: str = "scripted:oracle",
              jobs: int = 1) -> SuiteReport:
    """Run every method over every task; optionally persist run artifacts."""
    if not tasks_with_envs:
        raise FatalError("the suite has no tasks to run")
    categories = {task.id: task.category for task, _ in tasks_with_envs}
    reports = []
    all_trajectories: dict[str, list[Trajectory]] = {}
    for method in methods:
        trajectories, scores = run_method_over_tasks(
            method, tasks_with_envs, config, backend_factory, jobs=jobs)
        all_trajectories[method] = trajectories
        reports.append(aggregate(scores, categories, method=method))
    report = merge_reports(reports)

    if out_dir is not None:
        logs = {f"trajectories/{method}.jsonl": trajectories
                for method, trajectories in all_trajectories.items()}
        write_run_dir(Path(out_dir), logs, report, config, methods,
                      backend_spec, sorted(categories), jobs=jobs)
    return report


def write_run_dir(out_dir: Path, logs: dict[str, Sequence[Trajectory]],
                  report: SuiteReport, config: RunConfig,
                  methods: Sequence[str], backend_spec: str,
                  task_ids: Sequence[str], jobs: Optional[int] = None) -> None:
    """Write a run directory: each trajectory log under its relative path,
    written fresh, then `manifest.json`, `report.txt` and `report.json`.
    The manifest holds a `jobs` key only when `jobs` is given."""
    from .planner import PROMPT_VERSION

    out_dir.mkdir(parents=True, exist_ok=True)
    for relative, trajectories in logs.items():
        path = out_dir / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        write_trajectories(path, trajectories)
    manifest: dict[str, Any] = {
        "config_hash": config_hash(config, methods, backend_spec),
        "backend": backend_spec,
        "methods": list(methods),
        "prompt_version": PROMPT_VERSION,
        "task_ids": list(task_ids),
    }
    if jobs is not None:
        manifest["jobs"] = jobs
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (out_dir / "report.txt").write_text(render_report_text(report),
                                        encoding="utf-8")
    (out_dir / "report.json").write_text(render_report_json(report),
                                         encoding="utf-8")
