"""Synthetic ground-truth world: named tables of records and retrieval tools.

Two generic read-only tools are exposed over every table:

    get_record(table, field, value)     -> the first row matching field=value
    filter_records(table, field, value) -> every matching row, in table order

Environments are immutable after load and safe to share across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from .errors import NoMatch, ToolError, UnknownField, UnknownTool

Scalar = Any  # str | int | float | bool
Row = dict[str, Scalar]


@dataclass(frozen=True)
class Table:
    name: str
    key_field: str
    rows: tuple[Row, ...]

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self.rows[0].keys()) if self.rows else (self.key_field,)


@dataclass(frozen=True)
class ToolSpec:
    name: str
    description: str
    parameters: tuple[tuple[str, str], ...]  # (name, scalar kind)
    table: Optional[str] = None              # None for the generic tools
    semantics: str = "get_record"            # get_record | filter_records

    def signature(self) -> str:
        args = ", ".join(f"{pname}: {kind}" for pname, kind in self.parameters)
        return f"{self.name}({args})"


GENERIC_TOOLS = (
    ToolSpec(
        name="get_record",
        description="Return the single record of a table whose field equals the value.",
        parameters=(("table", "string"), ("field", "string"), ("value", "string")),
        semantics="get_record",
    ),
    ToolSpec(
        name="filter_records",
        description="Return every record of a table whose field equals the value.",
        parameters=(("table", "string"), ("field", "string"), ("value", "string")),
        semantics="filter_records",
    ),
)


@dataclass(frozen=True)
class ToolCall:
    tool_name: str
    arguments: Mapping[str, Scalar]


def _values_equal(row_value: Scalar, wanted: Scalar) -> bool:
    # Tool arguments arrive as text; compare loosely but deterministically.
    return row_value == wanted or str(row_value) == str(wanted)


def render_number(value: Any) -> str:
    """Canonical numeric rendering: ints exact, floats to 6 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def render_row(row: Row) -> str:
    return json.dumps(row, ensure_ascii=False)


def render_rows(rows: Sequence[Row]) -> str:
    if not rows:
        return "[]"
    return "[" + ", ".join(render_row(r) for r in rows) + "]"


def observe_tool_call(env: Any, call: "ToolCall"
                      ) -> tuple[str, Optional[ToolError]]:
    """Invoke one tool call and render the result as observation text.

    A get_record result renders as its one row, a filter_records result as
    the list of rows.  A failing call renders as `Tool call <name> failed:
    <error>` and its error is returned alongside; no text is truncated.
    """
    try:
        rows = env.invoke_tool(call)
    except ToolError as exc:
        return f"Tool call {call.tool_name} failed: {exc}", exc
    if env.tool(call.tool_name).semantics == "get_record":
        return render_row(rows[0]), None
    return render_rows(rows), None


@dataclass(frozen=True)
class ToolEnvironment:
    tables: tuple[Table, ...] = ()
    tools: tuple[ToolSpec, ...] = GENERIC_TOOLS

    def table(self, name: str) -> Table:
        for table in self.tables:
            if table.name == name:
                return table
        raise UnknownField(f"unknown table '{name}'")

    def tool(self, name: str) -> ToolSpec:
        for spec in self.tools:
            if spec.name == name:
                return spec
        raise UnknownTool(f"unknown tool '{name}'")

    def invoke_tool(self, call: ToolCall) -> list[Row]:
        """Run one retrieval call; raises UnknownTool / UnknownField / NoMatch."""
        spec = self.tool(call.tool_name)
        allowed = {pname for pname, _ in spec.parameters}
        unexpected = set(call.arguments) - allowed
        if unexpected:
            raise UnknownField(
                f"{spec.name} takes ({', '.join(sorted(allowed))}); "
                f"unexpected argument(s): {', '.join(sorted(unexpected))}")
        table_name = str(call.arguments.get("table", spec.table or ""))
        field_name = str(call.arguments.get("field", ""))
        value = call.arguments.get("value", "")
        table = self.table(table_name)
        if table.rows and field_name not in table.fields:
            raise UnknownField(
                f"table '{table.name}' has no field '{field_name}' "
                f"(fields: {', '.join(table.fields)})"
            )
        matches = [row for row in table.rows
                   if _values_equal(row.get(field_name), value)]
        if spec.semantics == "get_record":
            if not matches:
                raise NoMatch(
                    f"no {table.name} record with {field_name} = {value!r}"
                )
            return [matches[0]]
        return matches

    def render_table_schemas(self) -> str:
        """The {table_used_prompt} slot: one line per table."""
        lines = []
        for table in self.tables:
            lines.append(
                f"- {table.name} (key: {table.key_field}; "
                f"fields: {', '.join(table.fields)}; {len(table.rows)} rows)"
            )
        return "\n".join(lines)

    def render_tool_descriptions(self) -> str:
        """The {tool_prompt} slot: one line per tool."""
        return "\n".join(f"- {t.signature()}: {t.description}" for t in self.tools)


# --- fixture files -------------------------------------------------------------

def table_to_dict(table: Table) -> dict[str, Any]:
    return {"name": table.name, "key_field": table.key_field,
            "rows": [dict(r) for r in table.rows]}


def table_from_dict(doc: Mapping[str, Any]) -> Table:
    return Table(name=doc["name"], key_field=doc["key_field"],
                 rows=tuple(dict(r) for r in doc["rows"]))


def save_table(table: Table, path: Path) -> None:
    path.write_text(json.dumps(table_to_dict(table), ensure_ascii=False, indent=2)
                    + "\n", encoding="utf-8")


def load_table(path: Path) -> Table:
    return table_from_dict(json.loads(path.read_text(encoding="utf-8")))


def load_environment(table_paths: Iterable[Path]) -> ToolEnvironment:
    """Build an environment from one-document-per-table fixture files."""
    tables = tuple(load_table(Path(p)) for p in sorted(table_paths, key=str))
    return ToolEnvironment(tables=tables)
