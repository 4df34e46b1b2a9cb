"""Where each job is done, read from the source: a fault type exists only
where a handler names it, and each path, model-text format and run
directory has one owner."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path
from typing import Callable

import goalact
from goalact import errors

SOURCE = Path(goalact.__file__).resolve().parent


def _names_by_function(tree: ast.AST, names_at: Callable[[ast.AST], list[str]]
                       ) -> dict[str, list[str]]:
    """Each name `names_at` finds at a node -> the functions it is found in,
    each named with its enclosing classes and functions
    (`ToolEnvironment.call`)."""
    found: dict[str, list[str]] = {}

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            function = node.name if function == "<module>" \
                else f"{function}.{node.name}"
        for name in names_at(node):
            found.setdefault(name, []).append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def _caught(node: ast.AST) -> list[str]:
    """The names an `except` clause catches."""
    if isinstance(node, ast.ExceptHandler) and node.type is not None:
        return [part.id for part in ast.walk(node.type)
                if isinstance(part, ast.Name)]
    return []


def _attributes(node: ast.AST) -> list[str]:
    """The attribute an `x.name` expression reads."""
    return [node.attr] if isinstance(node, ast.Attribute) else []


def _defined(node: ast.AST) -> list[str]:
    """The name a `def` binds."""
    return [node.name] if isinstance(node, ast.FunctionDef) else []


def _called(node: ast.AST) -> list[str]:
    """The name a call of a bare name calls (`strip_code_fences(text)`)."""
    return [node.func.id] if isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Name) else []


def _strings(node: ast.AST) -> list[str]:
    """The text of a string constant."""
    return [node.value] if isinstance(node, ast.Constant) \
        and isinstance(node.value, str) else []


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_fault_type_is_caught_by_name_somewhere():
    defined = [name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, Exception)
               and value.__module__ == errors.__name__]
    assert sorted(defined) == sorted([
        "GoalActError", "FatalError", "PlanError", "PlanningFailed",
        "BackendError", "BackendUnavailable", "AuthFailure", "RuleMiss",
        "CassetteMiss", "ToolError"])
    caught: set[str] = set()
    for path in SOURCE.glob("*.py"):
        caught |= set(_names_by_function(_parse(path), _caught))
    assert [name for name in defined if name not in caught] == []


def _sites(name: str, names_at: Callable[[ast.AST], list[str]]) -> set[str]:
    """`<module>.<function>` of every place under src/goalact/ where
    `names_at` finds `name`."""
    return {f"{path.stem}.{function}" for path in SOURCE.glob("*.py")
            for function in _names_by_function(_parse(path), names_at)
            .get(name, [])}


def _catchers(name: str) -> set[str]:
    """`<module>.<function>` of every handler that catches `name`."""
    return _sites(name, _caught)


def test_only_dispatch_turns_a_skill_outage_into_an_observation():
    """A decision-call outage ends the run and a summary outage degrades
    it; every other outage is a skill's, which `dispatch` renders."""
    assert _catchers("BackendUnavailable") == {
        "skills.dispatch", "orchestrator.summarize", "orchestrator.run_task"}


def test_a_recorded_fault_is_caught_in_run_task_and_run_recorded_only():
    """`run_task` hangs the partial trajectory on the fault and
    `run_recorded` returns both; the suite and `goalact run` keep them."""
    for name in ("AuthFailure", "RuleMiss", "CassetteMiss"):
        assert _catchers(name) == {"orchestrator.run_task",
                                   "suite.run_recorded"}


def test_a_tool_error_is_caught_in_tool_environment_call_only():
    """Every tool call runs through `ToolEnvironment.call`, which returns a
    fault as the result's error."""
    assert _catchers("ToolError") == {"environment.ToolEnvironment.call"}


def test_only_tool_environment_call_runs_invoke_tool():
    assert _sites("invoke_tool", _attributes) == {
        "environment.ToolEnvironment.call"}


def test_the_oracle_writes_and_the_planner_reads_every_model_text():
    """The plan-reply writers live and run in `oracle` alone, the fence
    reader lives in `planner`, and of the functions `backends` defines, a
    run calls only its request builder and the JSON decoder its HTTP client
    reads its own response envelope with."""
    def modules(sites: set[str]) -> set[str]:
        return {site.split(".")[0] for site in sites}

    for name in ("render_step_object", "join_step_objects"):
        assert modules(_sites(name, _defined)) == {"oracle"}
        assert modules(_sites(name, _called)) == {"oracle"}
    assert modules(_sites("strip_code_fences", _defined)) == {"planner"}
    transport = {node.name for node in _parse(SOURCE / "backends.py").body
                 if isinstance(node, ast.FunctionDef)}
    run_calls = {name for module in ("orchestrator", "skills", "planner")
                 for name in _names_by_function(
                     _parse(SOURCE / f"{module}.py"), _called)}
    assert transport & run_calls == {"decode_json", "user_request"}
    assert "backends" in modules(_sites("decode_json", _called))


def test_one_function_writes_every_run_directory():
    """`suite.write_runs` is the only function that names `manifest.json`,
    and `cli` reaches a run directory through it alone: it aggregates no
    scores and writes, creates or deletes no file of its own."""
    assert _sites("manifest.json", _strings) - {"suite.<module>"} == {
        "suite.write_runs"}
    cli = _parse(SOURCE / "cli.py")
    calls = {*_names_by_function(cli, _called),
             *_names_by_function(cli, _attributes)}
    assert "write_runs" in calls
    assert calls & {"aggregate", "write_trajectories", "clear_run_dir",
                    "write_run_dir", "open", "mkdir", "unlink", "rmdir",
                    "write_text", "write_bytes"} == set()
