"""Persisted records: their JSON documents, and the one reader of every file
the harness reads back.

A record's document holds exactly the fields its dataclass declares, in
declaration order; a field declared a list or tuple holds an array, and one
of records (`list[<record>]`, `tuple[<record>, ...]`) their documents.  A
file whose document is not JSON, or which its build function refuses with a
KeyError, TypeError or ValueError, raises a FatalError that calls the file
malformed; a FatalError of the build function keeps its own message.
Either names the file, and the line of a line-delimited file.
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
def _declared(cls: type) -> tuple[dict[str, Any],
                                  dict[str, Callable[[Any], Any]],
                                  Callable[[Any], dict[str, Any]]]:
    """Each declared field's type, in declaration order, the reader of each
    field declared a list or tuple, and the class's document builder."""
    hints = typing.get_type_hints(cls)
    declared = {f.name: hints[f.name] for f in fields(cls)}
    nested, readers = {}, {}
    for name, hint in declared.items():
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        item = (args or (None,))[0]
        if (origin is list or args[1:] == (Ellipsis,)) and is_dataclass(item):
            nested[name] = item
        if origin in (list, tuple):
            readers[name] = functools.partial(_array, name, origin,
                                              nested.get(name))
    return declared, readers, _document_builder(declared, nested)


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
    """TypeError unless `doc` is an object of exactly the declared keys,
    each field declared a list or tuple holding an array."""
    declared, readers, _ = _declared(cls)
    if not isinstance(doc, dict) or doc.keys() != declared.keys():
        raise TypeError(f"a {cls.__name__} is an object of exactly the keys "
                        f"{', '.join(declared)}")
    return cls(**{name: readers[name](value) if name in readers else value
                  for name, value in doc.items()})


def _array(name: str, container: type, item: Any, value: Any) -> Any:
    if not isinstance(value, list):
        raise TypeError(f"{name} must be an array, not {type(value).__name__}")
    return container(value if item is None
                     else [record_from_dict(item, doc) for doc in value])


def _conforms(value: Any, hint: Any) -> bool:
    if is_dataclass(hint) and isinstance(value, hint):
        check_types(value)  # names the record's own field at fault
        return True
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is None:  # a bool is no number; an int is a float
        kinds = (int, float) if hint is float else hint
        return isinstance(value, kinds) and (hint is bool
                                             or type(value) is not bool)
    if origin is tuple and args[-1] is not Ellipsis:
        return isinstance(value, tuple) and len(value) == len(args) \
            and all(map(_conforms, value, args))
    return isinstance(value, origin) \
        and all(_conforms(v, args[0]) for v in value) \
        and (origin is not dict or all(_conforms(v, args[1])
                                       for v in value.values()))


def check_types(record: T) -> T:
    """`record`, or a TypeError naming the first field whose value is not of
    its declared type: a class, Optional, or a tuple, set, list or dict of
    them, a dict's values and a record's own fields checked too.  A bool is
    no int or float; an int is a float."""
    declared = _declared(type(record))[0]
    for f in fields(record):
        if not _conforms(getattr(record, f.name), declared[f.name]):
            raise TypeError(f"{f.name} must be {f.type}, "
                            f"not {getattr(record, f.name)!r}")
    return record


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
