"""The package's import structure: its modules import one another without a
cycle, and only at module level."""

from __future__ import annotations

import ast
from pathlib import Path

import goalact

SOURCE = Path(goalact.__file__).resolve().parent


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _sibling_imports(tree: ast.AST) -> set[str]:
    """The package modules an `import` anywhere in `tree` names, relative
    (`from .plan import ...`, `from . import plan`) or absolute
    (`from goalact.plan import ...`, `import goalact.plan`)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "goalact" and not module.startswith("goalact."):
                    continue
                module = module[len("goalact."):]
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("goalact."))
    return names


def _import_graph() -> dict[str, set[str]]:
    modules = {path.stem: path for path in SOURCE.glob("*.py")}
    return {name: _sibling_imports(_parse(path)) & set(modules)
            for name, path in modules.items()}


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle of `graph` as a path that ends where it starts, or
    [] when there is none."""
    done: set[str] = set()
    path: list[str] = []

    def visit(module: str) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for imported in sorted(graph[module]):
            cycle = visit(imported)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_the_package_import_graph_is_acyclic():
    graph = _import_graph()
    assert "sandbox" in graph["skills"]  # the Coding skill runs scripts
    assert _cycle(graph) == []


def test_the_cycle_finder_reports_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) == []


def test_no_function_body_imports():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.stem}.{node.name}:{inner.lineno}"
                          for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []
