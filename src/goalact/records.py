"""Persisted records: their JSON documents, and the one reader of every file
the harness reads back.

A record's document holds exactly the fields its dataclass declares, in
declaration order; a field declared a list or tuple holds an array, and one
of records (`list[<record>]`, `tuple[<record>, ...]`) their documents.  A
field declared a record has no key of its own: that record's keys stand in
its place, in its declaration order, and the reader builds it back from
them.  (`RunConfig.sandbox_limits` is such a field, but a run config is
never written as a document; `check_types` checks it as a record.)  A
file whose document is not JSON, or which its build function refuses with a
KeyError, TypeError or ValueError, raises a FatalError that calls the file
malformed; a FatalError of the build function keeps its own message.
Either names the file, and the line of a line-delimited file.
"""

from __future__ import annotations

import functools
import json
import operator
import types
import typing
from dataclasses import fields, is_dataclass
from typing import Any, Callable, TypeVar

from .errors import FatalError

T = TypeVar("T")
_REFUSALS = (ValueError, KeyError, TypeError, RecursionError, FatalError)


@functools.cache
def _declared(cls: type) -> tuple[dict[str, Any], dict[str, None],
                                  dict[str, Callable[[dict], Any]],
                                  Callable[[Any], dict[str, Any]]]:
    """Each declared field's type, in declaration order; the document's
    keys, in order; each field's reader of a document; and the document
    builder, a dict display of the fields read as attributes, compiled once
    per class as `dataclasses` compiles `__init__`: the display costs a
    quarter of a `getattr` loop's time."""
    hints = typing.get_type_hints(cls)
    declared = {f.name: hints[f.name] for f in fields(cls)}
    keys, readers, items, scope = {}, {}, [], {}
    for name, hint in declared.items():
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        inner = None  # the record class the field holds, if any
        if is_dataclass(hint):
            inner = hint
        elif (origin is list or args[1:] == (Ellipsis,)) \
                and is_dataclass(args[0]):
            inner = args[0]
        if inner is not None:
            scope[f"build_{name}"] = _declared(inner)[3]
        if inner is hint:  # its keys stand in its own key's place
            items.append(f"**build_{name}(record.{name})")
            keys.update(_declared(hint)[1])
            readers[name] = functools.partial(_read, hint)
            continue
        items.append(f"{name!r}: list(map(build_{name}, record.{name}))"
                     if inner else f"{name!r}: record.{name}")
        keys[name] = None
        readers[name] = functools.partial(_array, name, origin, inner) \
            if origin in (list, tuple) else operator.itemgetter(name)
    build = eval(f"lambda record: {{{', '.join(items)}}}", scope)
    return declared, keys, readers, build


def record_to_dict(record: Any) -> dict[str, Any]:
    """The document of `record`, built from its declared fields."""
    return _declared(type(record))[3](record)


def record_from_dict(cls: type[T], doc: Any) -> T:
    """TypeError unless `doc` is an object of exactly the document's keys,
    each field declared a list or tuple holding an array."""
    keys = _declared(cls)[1]
    if not isinstance(doc, dict) or doc.keys() != keys.keys():
        raise TypeError(f"a {cls.__name__} is an object of exactly the keys "
                        f"{', '.join(keys)}")
    return _read(cls, doc)


def _read(cls: type[T], doc: dict) -> T:
    """`cls` built from the keys of `doc` that its document holds."""
    return cls(**{name: read(doc) for name, read in _declared(cls)[2].items()})


def _array(name: str, container: type, item: Any, doc: dict) -> Any:
    value = doc[name]
    if not isinstance(value, list):
        raise TypeError(f"{name} must be an array, not {type(value).__name__}")
    return container(value if item is None
                     else [record_from_dict(item, entry) for entry in value])


def _conforms(value: Any, hint: Any) -> bool:
    if hint is Any:
        return True
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
    its declared type: a class, Optional, Any, or a tuple, set, list or dict
    of them, a dict's values and a record's own fields checked too.  A bool
    is no int or float; an int is a float."""
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
