"""Synthetic ground-truth world: named tables of records and retrieval tools.

Two read-only tools, the constant `TOOLS`, are exposed over every table;
each takes the `TOOL_PARAMETERS`, and `TOOL_DESCRIPTIONS` lists them:

    get_record(table, field, value)     -> the first row matching field=value
    filter_records(table, field, value) -> every matching row, in table order

`ToolEnvironment.call` runs a call through `invoke_tool`, the one place a
ToolError is caught, and returns a `ToolResult`: the rows with each row's
JSON text, or the error of a call that failed.

Environments are immutable after load and safe to share across runs and
threads.  What they write are caches of derived text, each filled on first
use: a table's text column for a queried field and the JSON text of each
row a call returns (see `Table`), and an environment's table-schema text.
Two threads that miss a cache at once both build equal values from the same
immutable inputs, and storing one is a single atomic assignment, so neither
can see a partial or different value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from .errors import ToolError
from .records import read_document, record_from_dict, record_to_dict

Scalar = Any  # str | int | float | bool
Row = dict[str, Scalar]


# The types a fixture's JSON can hold.  None of them compares equal to a str
# unless its str() is that very text, which is what lets a lookup by text
# compare texts only.
_JSON_TYPES = frozenset({str, int, float, bool, type(None), list, dict})


@dataclass(frozen=True)
class Table:
    """A named tuple of rows; the fields are the first row's keys.

    `text_column(field)` is `[str(row.get(field)) for row in rows]`, built on
    the first lookup of that field and kept in `_columns`, or None when the
    field holds a value of a non-JSON type, whose `==` a text comparison
    cannot stand in for.  Only queried fields are ever built, so loading
    pays for none.  The cache is no dataclass state: it takes no part in
    equality or repr, and its document does not hold it.  Threads that
    build one column at once each build an equal list from the same rows,
    and storing it is one atomic dict assignment, so every reader sees the
    same column.  The rows must not change after the first lookup.

    `row_text(row)` is `render_row(row)`, rendered the first time a call
    returns that row and kept in `_row_texts` under the row's id, next to
    the row itself: only that very object gets the kept text, so a copied
    table's cache, whose ids name other objects, is never misread.  It is
    cached like the columns, and concurrent first renders store equal
    strings with one dict assignment.
    """

    name: str
    key_field: str
    rows: tuple[dict, ...]  # Rows, read back checked only as objects
    _columns: dict[str, Optional[list[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _row_texts: dict[int, tuple[Row, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def fields(self) -> tuple[str, ...]:
        return tuple(self.rows[0].keys()) if self.rows else (self.key_field,)

    def text_column(self, field_name: str) -> Optional[list[str]]:
        try:
            return self._columns[field_name]
        except KeyError:
            pass
        values = [row.get(field_name) for row in self.rows]
        column = None
        if all(type(v) in _JSON_TYPES for v in values):
            column = [str(v) for v in values]
        self._columns[field_name] = column
        return column

    def row_text(self, row: Row) -> str:
        kept = self._row_texts.get(id(row))
        if kept is not None and kept[0] is row:
            return kept[1]
        text = render_row(row)
        self._row_texts[id(row)] = row, text
        return text


TOOLS = {  # name -> description
    "get_record":
        "Return the single record of a table whose field equals the value.",
    "filter_records":
        "Return every record of a table whose field equals the value.",
}
TOOL_PARAMETERS = ("table", "field", "value")
# The {tool_prompt} slot: one line per tool.
TOOL_DESCRIPTIONS = "\n".join(
    f"- {name}({', '.join(f'{p}: string' for p in TOOL_PARAMETERS)}): "
    f"{description}" for name, description in TOOLS.items())


@dataclass(frozen=True)
class ToolCall:
    tool_name: str
    arguments: Mapping[str, Scalar]


class ToolResult(NamedTuple):
    """The rows a call returned and each row's JSON text, or no rows and the
    error of a call that failed."""

    rows: list[Row]
    texts: list[str]
    error: Optional[str] = None

    @property
    def list_text(self) -> str:
        """`render_rows(rows)`, joined from the texts."""
        return "[" + ", ".join(self.texts) + "]"


def _values_equal(row_value: Scalar, wanted: Scalar) -> bool:
    # Tool arguments arrive as text; compare loosely but deterministically.
    return row_value == wanted or str(row_value) == str(wanted)


def _matching_rows(table: Table, field_name: str, value: Scalar,
                   first_only: bool) -> list[Row]:
    """The rows whose field loosely equals the value, in table order."""
    column = table.text_column(field_name) if type(value) is str else None
    if column is None:
        matches = [row for row in table.rows
                   if _values_equal(row.get(field_name), value)]
        return matches[:1] if first_only else matches
    # list.index compares in C; with only JSON values in the column, a text
    # match is exactly what _values_equal accepts for a str value.
    matches = []
    start = 0
    try:
        while True:
            start = column.index(value, start)
            matches.append(table.rows[start])
            if first_only:
                break
            start += 1
    except ValueError:
        pass
    return matches


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


@dataclass(frozen=True)
class ToolEnvironment:
    tables: tuple[Table, ...] = ()

    # Name -> first table of that name, built on the first lookup.
    @cached_property
    def _tables_by_name(self) -> dict[str, Table]:
        return {t.name: t for t in reversed(self.tables)}

    def table(self, name: str) -> Table:
        table = self._tables_by_name.get(name)
        if table is None:
            raise ToolError(f"unknown table '{name}'")
        return table

    def invoke_tool(self, call: ToolCall) -> list[Row]:
        """Run one retrieval call; a ToolError names an unknown tool, table or
        field, or a get_record call that matches no row."""
        name = call.tool_name
        if name not in TOOLS:
            raise ToolError(f"unknown tool '{name}'")
        unexpected = set(call.arguments).difference(TOOL_PARAMETERS)
        if unexpected:
            raise ToolError(
                f"{name} takes ({', '.join(sorted(TOOL_PARAMETERS))}); "
                f"unexpected argument(s): {', '.join(sorted(unexpected))}")
        field_name = str(call.arguments.get("field", ""))
        value = call.arguments.get("value", "")
        table = self.table(str(call.arguments.get("table", "")))
        if table.rows and field_name not in table.fields:
            raise ToolError(
                f"table '{table.name}' has no field '{field_name}' "
                f"(fields: {', '.join(table.fields)})"
            )
        first_only = name == "get_record"
        matches = _matching_rows(table, field_name, value, first_only)
        if first_only and not matches:
            raise ToolError(
                f"no {table.name} record with {field_name} = {value!r}"
            )
        return matches

    def call(self, call: ToolCall) -> ToolResult:
        """Run one call; a ToolError becomes the result's error."""
        try:
            rows = self.invoke_tool(call)
        except ToolError as exc:
            return ToolResult(rows=[], texts=[], error=str(exc))
        table = self.table(str(call.arguments.get("table", "")))
        return ToolResult(rows, [table.row_text(row) for row in rows])

    @cached_property
    def _table_schemas(self) -> str:
        return "\n".join(
            f"- {table.name} (key: {table.key_field}; "
            f"fields: {', '.join(table.fields)}; {len(table.rows)} rows)"
            for table in self.tables)

    def render_table_schemas(self) -> str:
        """The {table_used_prompt} slot: one line per table, rendered on
        first use and kept."""
        return self._table_schemas


# --- fixture files -------------------------------------------------------------

def save_table(table: Table, path: Path) -> None:
    path.write_text(json.dumps(record_to_dict(table), ensure_ascii=False,
                               indent=2) + "\n", encoding="utf-8")


def load_table(path: str | Path) -> Table:
    return read_document(path, partial(record_from_dict, Table))
