"""Operator surface: generate fixtures, run tasks or suites, replay, report.

Exit codes: 0 on success (a low score is not a process failure), 2 for bad
flags or configuration, 3 for backend faults.  Every file a command reads
(run config, task fixture and table, rules file, cassette, trajectory log,
report, exemplar file) goes through `records`, so a malformed one exits with
2 and a message naming the file, and the line of a line-delimited one.
`run` and `suite` write their run directory only through `suite.write_runs`,
and only once every configuration fault has been refused.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

from .errors import BackendError, FatalError, GoalActError
from .evaluation import (
    SuiteReport,
    path_coverage,
    render_report_json,
    render_report_text,
)
from .generator import generate_task, load_fixture, save_fixture
from .orchestrator import METHOD_GOALACT, RunConfig, normalize_method
from .plan import Trajectory, encode_trajectory, read_trajectories
from .records import quoted, read_document, record_from_dict
from .sandbox import SandboxLimits
from .suite import (
    ENV_MODEL,
    Outcome,
    resolve_backend_factory,
    run_recorded,
    run_suite,
    score_trajectory,
    write_runs,
)


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


@dataclass(frozen=True)
class CustomSkill:
    """A run config's `custom_skills` entry; its description may be left
    out."""
    name: str
    description: str


def _ablations(flags: Any) -> frozenset:
    if not isinstance(flags, list):  # not a string taken as its characters
        raise TypeError("ablations must be an array of strings")
    return frozenset(flags)  # whose items RunConfig checks


def _custom_skill(entry: Any) -> tuple[str, str]:
    skill = record_from_dict(CustomSkill, {"description": "", **entry})
    return skill.name, skill.description


# The file form of the RunConfig fields that JSON cannot hold as they are.
_FILE_FORMS = {
    "ablations": _ablations,
    "sandbox_limits": lambda limits: SandboxLimits(**limits),
    "custom_skills": lambda entries: tuple(map(_custom_skill, entries)),
}


def load_run_config(config_path: Optional[Path], method: str,
                    backend_flag: Optional[str]) -> tuple[RunConfig, str]:
    """The file is a JSON object of RunConfig fields plus `backend`; `method`
    comes from the command line.  The backend is `backend_flag`, else the
    file's `backend`, else scripted:oracle; the model is GOALACT_MODEL, else
    the file's `model`.  An unknown key, or a value not of its field's type,
    raises FatalError naming the file and the key."""

    def build(doc: Any) -> tuple[RunConfig, str]:
        if not isinstance(doc, dict):
            raise TypeError("a run config is a JSON object")
        settings = {**doc, "method": method}
        backend = settings.pop("backend", None)
        if not isinstance(backend, (str, type(None))):
            raise TypeError(f"backend must be str, not {quoted(backend)}")
        model = os.environ.get(ENV_MODEL) or settings.pop("model", None)
        if model:
            settings["model"] = model
        for key, form in _FILE_FORMS.items():
            if key in settings:
                settings[key] = form(settings[key])
        return RunConfig(**settings), \
            backend_flag or backend or "scripted:oracle"

    return build({}) if config_path is None \
        else read_document(config_path, build)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise FatalError(f"count must be at least 1, got {args.count}")
    written = []
    for i in range(args.count):
        task, env = generate_task(
            f"{args.k}hop" if args.category == "khop" else args.category,
            args.seed + i)
        written.append(save_fixture(task, env, args.out))
    print(f"wrote {len(written)} task fixture(s) under {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    method = normalize_method(args.method)
    config, backend_spec = load_run_config(args.config, method, args.backend)
    task, env = load_fixture(args.task)
    backend = resolve_backend_factory(backend_spec)(task)

    def outcome() -> Iterator[Outcome]:
        trajectory, fault = run_recorded(task, env, config, backend)
        score = None if fault else score_trajectory(task, trajectory)
        if score is not None:
            trajectory_text = "\n".join(
                call.response for call in trajectory.llm_calls)
            coverage = path_coverage(task.key_middles, trajectory_text)
            print(f"task {task.id} [{task.category}] via {method}: "
                  f"s={score.s:.4f} path_coverage={coverage:.4f} "
                  f"steps={trajectory.step_count} "
                  f"termination={trajectory.termination_reason}")
            print(f"final answer: {trajectory.final_answer}")
        yield method, task.id, encode_trajectory(trajectory), score, fault

    write_runs(args.out, outcome(), config, [method], backend_spec,
               {task.id: task.category}, log="trajectories.jsonl")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    methods = [normalize_method(m) for m in args.methods.split(",") if m]
    if not methods:
        raise FatalError("no methods given")
    lead = METHOD_GOALACT if METHOD_GOALACT in methods else methods[0]
    config, backend_spec = load_run_config(args.config, lead, args.backend)
    if not config.ablations:  # then the suite's config is its first method's
        config = config.for_method(methods[0])
    tasks_dir = args.fixtures / "tasks"
    if not tasks_dir.is_dir():
        raise FatalError(f"no tasks/ directory under {args.fixtures}")
    pairs = [load_fixture(p) for p in sorted(tasks_dir.glob("*.json"))]
    factory = resolve_backend_factory(backend_spec)
    for task, _ in pairs:  # a malformed task is refused before any run
        factory(task)
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
    for plan in trajectory.revisions:
        lines.append(f"  revision {plan.revision}:")
        for step in plan.steps:
            flag = "x" if step.executed else " "
            lines.append(f"    [{flag}] {step.index}. {step.action.render()}")
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
    report = read_document(path, partial(record_from_dict, SuiteReport))
    render = render_report_json if args.format == "json" \
        else render_report_text
    print(render(report), end="")
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
    except (FatalError, OSError, ValueError) as exc:
        print(f"configuration fault: {exc}", file=sys.stderr)
        return 2
    except GoalActError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
