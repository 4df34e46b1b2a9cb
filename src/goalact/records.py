"""Persisted records: their JSON documents, and the one reader of every file
the harness reads back.

A record's document holds exactly the fields its dataclass declares but
its `init=False` caches, in declaration order; a field declared a list or
tuple holds an array, read back as that container of its items, records
and nested tuples too.  A field declared a record has no key of its own:
that record's keys stand in its place, in its declaration order.
(`RunConfig.sandbox_limits` is such a field, but a run config is never
written as a document.)  A reader that lets a key be absent fills it in
first, as `{"name": "", **doc}`.  A file whose document is not JSON, or
which its build function refuses with a KeyError, TypeError or ValueError,
raises a FatalError that calls the file malformed; a FatalError of the
build function keeps its own message.  Either names the file, and the line
of a line-delimited file.
"""

from __future__ import annotations

import functools
import json
import types
import typing
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Iterator, NamedTuple, Optional, TypeVar

from .errors import FatalError

T = TypeVar("T")
_REFUSALS = (ValueError, KeyError, TypeError, RecursionError, FatalError)


class _Declared(NamedTuple):
    keys: dict[str, None]  # the document's, in order
    read: Callable[[dict], Any]  # the record, from its keys in a document
    build: Callable[[Any], Any]  # `read`, once the keys are exactly these
    write: Callable[[Any], dict[str, Any]]  # a record's document
    check: Callable[[Any], bool]  # True, or a TypeError naming the field


@functools.cache
def _declared(cls: type) -> _Declared:
    """What `records` knows of a record class: functions compiled once per
    class, as `dataclasses` compiles `__init__`.  The writer is a dict
    display of the fields read as attributes, which costs a quarter of a
    `getattr` loop's time; the check tests each field with its type's
    predicate (`_holds`) and names the first field at fault."""
    hints = typing.get_type_hints(cls)
    keys, reads, writes, tests = {}, [], [], []
    scope = {"cls": cls, "quoted": quoted, "refuse": _refuse}
    for f in fields(cls):
        if not f.init:
            continue  # a cache, not state
        name, hint = f.name, hints[f.name]
        scope[f"holds_{name}"], scope[f"type_{name}"] = _holds(hint), f.type
        if _holds(hint) is not None:
            tests.append(f"(holds_{name}(record.{name}) or refuse(f'{name} "
                         f"must be {{type_{name}}}, not "
                         f"{{quoted(record.{name})}}'))")
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        inner = None  # the record class the field holds, if any
        if is_dataclass(hint):
            inner = hint
        elif (origin is list or args[1:] == (Ellipsis,)) \
                and is_dataclass(args[0]):
            inner = args[0]
        if inner is not None:
            scope[f"write_{name}"] = _declared(inner).write
        if inner is hint:  # its keys stand in its own key's place
            scope[f"read_{name}"] = _declared(hint).read
            reads.append(f"{name}=read_{name}(doc)")
            writes.append(f"**write_{name}(record.{name})")
            keys.update(_declared(hint).keys)
            continue
        scope[f"read_{name}"] = _reader(hint)
        reads.append(f"{name}=doc[{name!r}]" if _reader(hint) is None
                     else f"{name}=read_{name}(doc[{name!r}])")
        writes.append(f"{name!r}: list(map(write_{name}, record.{name}))"
                      if inner else f"{name!r}: record.{name}")
        keys[name] = None
    scope["keys"], read = keys.keys(), f"cls({', '.join(reads)})"
    scope["refusal"] = f"a {cls.__name__} is an object of exactly the " \
                       f"keys {', '.join(keys)}"
    return _Declared(
        keys, eval(f"lambda doc: {read}", scope),
        eval(f"lambda doc: {read} if isinstance(doc, dict) "
             f"and doc.keys() == keys else refuse(refusal)", scope),
        eval(f"lambda record: {{{', '.join(writes)}}}", scope),
        eval(f"lambda record: {' and '.join(tests) or 'True'}", scope))


def _refuse(message: str) -> Any:
    raise TypeError(message)


def quoted(value: Any) -> str:
    """`repr(value)` for a message, cut to at most 200 characters."""
    return text if len(text := repr(value)) <= 200 else text[:197] + "..."


@functools.cache
def _reader(hint: Any) -> Optional[Callable[[Any], Any]]:
    """A document's value read as `hint`, an array as the declared list or
    tuple of its items read; None keeps it as decoded, as is any non-array."""
    if is_dataclass(hint):
        return _declared(hint).build
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin not in (list, tuple):
        return None
    item = _reader(args[0]) if args[1:] in ((), (Ellipsis,)) else None
    return lambda value: value if type(value) is not list \
        else origin(value if item is None else map(item, value))


@functools.cache
def _holds(hint: Any) -> Optional[Callable[[Any], bool]]:
    """Whether a value is of type `hint`, built once per type; None when
    every value is.  A bool is no int or float; an int is a float."""
    if hint is Any:
        return None
    if is_dataclass(hint):  # a record's check names its own field at fault
        return lambda value: isinstance(value, hint) \
            and _declared(type(value)).check(value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    tests = [_holds(arg) or (lambda value: True) for arg in args
             if arg is not Ellipsis]
    if origin in (typing.Union, types.UnionType):
        if len(tests) == 2:  # Optional, most often
            return lambda value: tests[0](value) or tests[1](value)
        return lambda value: any(test(value) for test in tests)
    if origin is None:
        kinds = (int, float) if hint is float else hint
        if hint is bool or not issubclass(bool, kinds):
            return hint.__instancecheck__
        return lambda value: isinstance(value, kinds) \
            and type(value) is not bool
    if origin is tuple and args[-1] is not Ellipsis:
        return lambda value: isinstance(value, tuple) \
            and len(value) == len(tests) \
            and all(test(item) for test, item in zip(tests, value))
    item = _holds(args[0]) or (lambda value: True)  # a dict's keys
    if origin is dict and _holds(args[1]) is not None:
        entry = _holds(args[1])
        return lambda value: isinstance(value, dict) \
            and all(map(item, value)) and all(map(entry, value.values()))
    return lambda value: isinstance(value, origin) and all(map(item, value))


def record_to_dict(record: Any) -> dict[str, Any]:
    """The document of `record`, built from its declared fields."""
    return _declared(type(record)).write(record)


def record_from_dict(cls: type[T], doc: Any) -> T:
    """TypeError unless `doc` is an object of exactly the document's keys,
    each value, once read, of its field's type (`check_types`)."""
    declared = _declared(cls)
    record = declared.build(doc)
    declared.check(record)
    return record


def check_types(record: T) -> T:
    """`record`, or a TypeError naming the first field whose value is not of
    its declared type (`_holds`), a record's own fields checked too."""
    _declared(type(record)).check(record)
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


def read_lines(path: Any, build: Callable[[Any], T]) -> Iterator[T]:
    """Yield `build` of the JSON document on each non-blank line of the file
    at `path`, each as it is read.  Lines end at newlines only: JSON text may
    hold the other line breaks of `str.splitlines` unescaped."""
    number = 0
    try:
        with open(path, encoding="utf-8", newline="\n") as handle:
            for number, line in enumerate(handle, 1):
                if line.strip():
                    yield build(json.loads(line))
    except _REFUSALS as exc:
        raise _refused(f"{path}:{number}", exc) from exc
