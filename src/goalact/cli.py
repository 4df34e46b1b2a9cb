"""Operator surface: generate fixtures, run tasks or suites, replay, report.

Exit codes: 0 on success (a low score is not a process failure), 2 for bad
flags or configuration, 3 for backend faults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .errors import BackendError, FatalError, GoalActError
from .evaluation import aggregate, path_coverage, render_report_text
from .generator import (
    generate_aggregation_task,
    generate_khop_task,
    generate_writing_task,
    load_fixture,
    save_fixture,
)
from .orchestrator import RunConfig, normalize_method
from .plan import Trajectory, read_trajectories
from .sandbox import SandboxLimits
from .suite import (
    resolve_backend_factory,
    run_suite,
    score_trajectory,
    write_run_dir,
)

ENV_BACKEND = "GOALACT_BACKEND"
ENV_MODEL = "GOALACT_MODEL"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalact",
        description="Globally re-planned agent runtime and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write deterministic task fixtures")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--k", type=int, default=1,
                     help="hop count for khop tasks (1..5)")
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--category", default="khop",
                     choices=["khop", "writing", "aggregation"])

    run = sub.add_parser("run", help="run one task fixture")
    run.add_argument("--task", type=Path, required=True)
    run.add_argument("--method", default="goalact")
    run.add_argument("--config", type=Path)
    run.add_argument("--backend")
    run.add_argument("--out", type=Path)

    suite = sub.add_parser("suite", help="run methods over a fixture directory")
    suite.add_argument("--fixtures", type=Path, required=True)
    suite.add_argument("--methods", default="goalact")
    suite.add_argument("--config", type=Path)
    suite.add_argument("--backend")
    suite.add_argument("--out", type=Path, required=True)
    suite.add_argument("--jobs", type=int, default=1)

    replay = sub.add_parser("replay", help="re-render a saved trajectory log")
    replay.add_argument("--trajectory", type=Path, required=True)

    report = sub.add_parser("report", help="render a saved report")
    report.add_argument("--results", type=Path, required=True)
    report.add_argument("--format", default="text", choices=["text", "json"])
    return parser


def load_run_config(config_path: Optional[Path], method: str,
                    backend_flag: Optional[str]) -> tuple[RunConfig, str]:
    """Assemble config with precedence: flags > environment > config file."""
    doc: dict[str, Any] = {}
    if config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise FatalError(f"{config_path}: not JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise FatalError(f"{config_path}: a run config is a JSON object")
    backend_spec = backend_flag or os.environ.get(ENV_BACKEND) \
        or doc.get("backend") or "scripted:oracle"
    model = os.environ.get(ENV_MODEL) or doc.get("model") or "scripted"
    try:
        limits = SandboxLimits(**doc.get("sandbox_limits", {}))
        config = RunConfig(
            method=method,
            max_iterations=doc.get("max_iterations", 10),
            ablations=frozenset(doc.get("ablations", [])),
            exemplar_count=doc.get("exemplar_count", 2),
            exemplars_file=doc.get("exemplars_file"),
            max_plan_steps=doc.get("max_plan_steps", 12),
            sandbox_limits=limits,
            observation_bytes=doc.get("observation_bytes", 4096),
            writing_budget=doc.get("writing_budget", 12000),
            model=model,
            custom_skills=tuple(
                (entry["name"], entry.get("description", ""))
                for entry in doc.get("custom_skills", [])),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise FatalError(f"{config_path}: malformed run config "
                         f"({exc!r})") from exc
    return config, backend_spec


def cmd_generate(args: argparse.Namespace) -> int:
    written = []
    for i in range(args.count):
        seed = args.seed + i
        if args.category == "khop":
            task, env = generate_khop_task(seed, args.k)
        elif args.category == "writing":
            task, env = generate_writing_task(seed)
        else:
            task, env = generate_aggregation_task(seed)
        written.append(save_fixture(task, env, args.out))
    print(f"wrote {len(written)} task fixture(s) under {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .orchestrator import run_task

    method = normalize_method(args.method)
    config, backend_spec = load_run_config(args.config, method, args.backend)
    task, env = load_fixture(args.task)
    backend = resolve_backend_factory(backend_spec)(task)
    trajectory = run_task(task, env, config, backend)
    score = score_trajectory(task, trajectory)
    trajectory_text = "\n".join(
        call.response for call in trajectory.llm_calls)
    coverage = path_coverage(task.key_middles, trajectory_text)
    print(f"task {task.id} [{task.category}] via {method}: "
          f"s={score.s:.4f} path_coverage={coverage:.4f} "
          f"steps={trajectory.step_count} "
          f"termination={trajectory.termination_reason}")
    print(f"final answer: {trajectory.final_answer}")
    if args.out is not None:
        report = aggregate([score], {task.id: task.category}, method=method)
        write_run_dir(args.out, {"trajectories.jsonl": [trajectory]}, report,
                      config, [method], backend_spec, [task.id])
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    methods = [normalize_method(m) for m in args.methods.split(",") if m]
    if not methods:
        raise FatalError("no methods given")
    config, backend_spec = load_run_config(args.config, methods[0],
                                           args.backend)
    tasks_dir = args.fixtures / "tasks"
    if not tasks_dir.is_dir():
        raise FatalError(f"no tasks/ directory under {args.fixtures}")
    pairs = [load_fixture(p) for p in sorted(tasks_dir.glob("*.json"))]
    factory = resolve_backend_factory(backend_spec)
    report = run_suite(pairs, methods, config, factory, out_dir=args.out,
                       backend_spec=backend_spec, jobs=args.jobs)
    print(render_report_text(report), end="")
    print(f"artifacts written to {args.out}")
    return 0


def render_transcript(trajectory: Trajectory) -> str:
    """Human-readable deterministic rendering of one saved trajectory."""
    lines = [
        f"task: {trajectory.task_id}",
        f"method: {trajectory.method}",
        f"steps: {trajectory.step_count}",
        f"termination: {trajectory.termination_reason}",
        f"plan revisions: {len(trajectory.revisions)}",
    ]
    for revision in trajectory.revisions:
        lines.append(f"  revision {revision['revision']}:")
        for step in revision["steps"]:
            flag = "x" if step["status"] == "executed" else " "
            lines.append(f"    [{flag}] {step['index']}. "
                         f"{step['kind']}[{step['objective']}]")
    lines.append(f"llm calls: {len(trajectory.llm_calls)}")
    for call in trajectory.llm_calls:
        lines.append(f"  - {call.purpose} ({call.attempts} attempt(s))")
    lines.append(f"tool calls: {len(trajectory.tool_calls)}")
    for record in trajectory.tool_calls:
        status = "ok" if record.ok else "error"
        args_text = json.dumps(record.arguments, sort_keys=True)
        lines.append(f"  - {record.tool} {args_text} -> {status}")
    lines.append(f"final answer: {trajectory.final_answer}")
    return "\n".join(lines) + "\n"


def cmd_replay(args: argparse.Namespace) -> int:
    for trajectory in read_trajectories(args.trajectory):
        print(render_transcript(trajectory), end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    path = args.results
    if path.is_dir():
        path = path / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if args.format == "json":
        print(json.dumps(doc, ensure_ascii=False, indent=2))
        return 0
    from .evaluation import MethodRow, SuiteReport

    rows = tuple(
        MethodRow(method=row["method"], per_category=row["per_category"],
                  overall=row["overall"], task_ids=frozenset())
        for row in doc["rows"]
    )
    report = SuiteReport(rows=rows, categories=tuple(doc["categories"]),
                         task_count=doc["task_count"])
    print(render_report_text(report), end="")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "run": cmd_run,
    "suite": cmd_suite,
    "replay": cmd_replay,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BackendError as exc:
        print(f"backend fault: {exc}", file=sys.stderr)
        return 3
    except (FatalError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"configuration fault: {exc}", file=sys.stderr)
        return 2
    except GoalActError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
