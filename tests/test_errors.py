"""The fault model: a fault type exists only where a handler names it."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import goalact
from goalact import errors

SOURCE = Path(goalact.__file__).resolve().parent


def _caught_names(tree: ast.AST) -> dict[str, list[str]]:
    """Each name an `except` clause catches -> the functions it is caught
    in, each named with its enclosing classes and functions
    (`RecordingEnvironment.invoke_tool`)."""
    caught: dict[str, list[str]] = {}

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            function = node.name if function == "<module>" \
                else f"{function}.{node.name}"
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for part in ast.walk(node.type):
                if isinstance(part, ast.Name):
                    caught.setdefault(part.id, []).append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return caught


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
        caught |= set(_caught_names(_parse(path)))
    assert [name for name in defined if name not in caught] == []


def _catchers(name: str) -> set[str]:
    """`<module>.<function>` of every handler under src/goalact/ that
    catches `name`."""
    return {f"{path.stem}.{function}" for path in SOURCE.glob("*.py")
            for function in _caught_names(_parse(path)).get(name, [])}


def test_only_dispatch_turns_a_skill_outage_into_an_observation():
    """A decision-call outage ends the run and a summary outage degrades
    it; every other outage is a skill's, which `dispatch` renders."""
    assert _catchers("BackendUnavailable") == {
        "skills.dispatch", "orchestrator.summarize", "orchestrator.run_task"}


def test_a_tool_error_is_caught_in_three_places_only():
    assert _catchers("ToolError") == {
        "orchestrator.RecordingEnvironment.invoke_tool",
        "skills.observe_emission", "sandbox._Interpreter.call_tool"}
