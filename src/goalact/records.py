"""Persisted records: their JSON documents, and the one reader of every file
the harness reads back.

A record's document holds exactly the fields its dataclass declares, in
declaration order; a field declared `list[<record>]` holds those records'
documents.  A file whose document is not JSON, or which its build function
refuses with a KeyError, TypeError or ValueError, raises a FatalError that
calls the file malformed; a FatalError of the build function keeps its own
message.  Either names the file, and the line of a line-delimited file.
"""

from __future__ import annotations

import functools
import json
import types
import typing
from dataclasses import fields, is_dataclass
from typing import Any, Callable, TypeVar

from .errors import FatalError

T = TypeVar("T")
_REFUSALS = (ValueError, KeyError, TypeError, RecursionError, FatalError)


@functools.cache
def _declared(cls: type) -> tuple[dict[str, Any], dict[str, type],
                                  Callable[[Any], dict[str, Any]]]:
    """Each declared field's type, in declaration order, the record class
    of each field declared `list[<record>]`, and the builder of the class's
    documents."""
    hints = typing.get_type_hints(cls)
    declared = {f.name: hints[f.name] for f in fields(cls)}
    nested = {}
    for name, hint in declared.items():
        item = (typing.get_args(hint) or (None,))[0]
        if typing.get_origin(hint) is list and is_dataclass(item):
            nested[name] = item
    return declared, nested, _document_builder(declared, nested)


def _document_builder(declared: dict[str, Any], nested: dict[str, type]
                      ) -> Callable[[Any], dict[str, Any]]:
    """A function returning a dict display of the declared fields, each
    read as an attribute, compiled once per class as `dataclasses` compiles
    `__init__`: the display costs a quarter of a `getattr` loop's time."""
    scope = {f"build_{name}": _declared(item)[2]
             for name, item in nested.items()}
    items = (f"{name!r}: list(map(build_{name}, record.{name}))"
             if name in nested else f"{name!r}: record.{name}"
             for name in declared)
    return eval(f"lambda record: {{{', '.join(items)}}}", scope)


def record_to_dict(record: Any) -> dict[str, Any]:
    """The document of `record`, built from its declared fields."""
    return _declared(type(record))[2](record)


def record_from_dict(cls: type[T], doc: Any) -> T:
    """TypeError unless `doc` is an object of exactly the declared keys."""
    declared, nested, _ = _declared(cls)
    if not isinstance(doc, dict) or doc.keys() != declared.keys():
        raise TypeError(f"a {cls.__name__} is an object of exactly the keys "
                        f"{', '.join(declared)}")
    return cls(**{name: [record_from_dict(nested[name], item) for item in value]
                  if name in nested else value for name, value in doc.items()})


def _conforms(value: Any, hint: Any) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is None:
        return isinstance(value, hint) and (hint is bool
                                            or type(value) is not bool)
    if origin is tuple and args[-1] is not Ellipsis:
        return isinstance(value, tuple) and len(value) == len(args) \
            and all(map(_conforms, value, args))
    return isinstance(value, origin) and all(_conforms(v, args[0])
                                             for v in value)


def check_types(record: Any) -> None:
    """TypeError naming the first field whose value is not of its declared
    type (a class, Optional, or a tuple or set of them); a bool is no int."""
    declared = _declared(type(record))[0]
    for f in fields(record):
        if not _conforms(getattr(record, f.name), declared[f.name]):
            raise TypeError(f"{f.name} must be {f.type}, "
                            f"not {getattr(record, f.name)!r}")


def _refused(where: Any, exc: Exception) -> FatalError:
    if isinstance(exc, FatalError):
        return FatalError(f"{where}: {exc}")
    return FatalError(f"{where}: malformed ({type(exc).__name__}: {exc})")


def read_document(path: Any, build: Callable[[Any], T]) -> T:
    """`build` of the JSON document in the file at `path`."""
    try:
        with open(path, encoding="utf-8") as handle:
            return build(json.load(handle))
    except _REFUSALS as exc:
        raise _refused(path, exc) from exc


def read_lines(path: Any, build: Callable[[Any], T]) -> list[T]:
    """`build` of the JSON document on each non-blank line of the file at
    `path`.  Lines end at newlines only: JSON text may hold the other line
    breaks of `str.splitlines` unescaped."""
    records, number = [], 0
    try:
        with open(path, encoding="utf-8", newline="\n") as handle:
            for number, line in enumerate(handle, 1):
                if line.strip():
                    records.append(build(json.loads(line)))
    except _REFUSALS as exc:
        raise _refused(f"{path}:{number}", exc) from exc
    return records
