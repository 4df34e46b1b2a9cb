"""`records`: a field declared a record writes that record's fields in its
place, and reads them back; the type checks built once per type accept and
refuse as the per-value walk they replaced does."""

from __future__ import annotations

import dataclasses
import functools
import random
import types
import typing
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Iterator, Optional

import pytest

from goalact.generator import CATEGORY_ORDER, generate_task
from goalact.oracle import oracle_backend
from goalact.orchestrator import METHODS, RunConfig, run_task
from goalact.plan import (
    SkillAction,
    Trajectory,
    decode_trajectory,
    encode_trajectory,
    make_plan,
)
from goalact.records import (
    check_types,
    quoted,
    record_from_dict,
    record_to_dict,
)


@dataclass(frozen=True)
class _Leaf:
    z: int


@dataclass(frozen=True)
class _Inner:
    b: int
    leaf: _Leaf
    c: Optional[str] = None


@dataclass(frozen=True)
class _Outer:
    a: str
    inner: _Inner
    d: tuple[_Inner, ...]


_OUTER = _Outer("x", _Inner(2, _Leaf(3), "y"), (_Inner(4, _Leaf(5)),))


def test_a_record_field_writes_its_fields_in_its_place_in_order():
    doc = record_to_dict(_OUTER)
    assert list(doc.items()) == [
        ("a", "x"), ("b", 2), ("z", 3), ("c", "y"),
        ("d", [{"b": 4, "z": 5, "c": None}])]
    assert record_from_dict(_Outer, doc) == _OUTER


@pytest.mark.parametrize("change", [
    {"inner": {"b": 2, "z": 3, "c": "y"}},  # the record's own name
    {"bogus": 1},
])
def test_a_record_field_reads_only_its_fields_keys(change):
    doc = {**record_to_dict(_OUTER), **change}
    with pytest.raises(TypeError, match="a, b, z, c, d"):
        record_from_dict(_Outer, doc)


def test_a_record_field_missing_one_of_its_keys_is_refused():
    doc = record_to_dict(_OUTER)
    del doc["z"]
    with pytest.raises(TypeError, match="exactly the keys"):
        record_from_dict(_Outer, doc)


# --- the built type checks against the per-value walk they replace ----------

_hints = functools.cache(typing.get_type_hints)


def _conforms(value: Any, hint: Any) -> bool:
    """The per-value type walk `check_types` made before its predicates were
    built once per type: the reference they must agree with."""
    if hint is Any:
        return True
    if is_dataclass(hint) and isinstance(value, hint):
        _walk_check(value)  # names the record's own field at fault
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


def _walk_check(record: Any) -> None:
    declared = _hints(type(record))
    for f in fields(record):
        value = getattr(record, f.name)
        if not _conforms(value, declared[f.name]):
            raise TypeError(f"{f.name} must be {f.type}, not {quoted(value)}")


def _refusal(check: Callable[[Any], Any], record: Any) -> Optional[str]:
    try:
        check(record)
    except TypeError as exc:
        return str(exc)
    return None


def _paths(value: Any, path: tuple = ()) -> Iterator[tuple]:
    """The path of every value inside `value`, each a tuple of field names
    and item indices or keys."""
    if is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, (list, tuple)):
        items = list(enumerate(value))
    elif isinstance(value, dict):
        items = list(value.items())
    else:
        return
    for step, item in items:
        yield path + (step,)
        yield from _paths(item, path + (step,))


def _replaced(value: Any, path: tuple, new: Any) -> Any:
    """`value` with the value at `path` replaced by `new`, copying only the
    containers and records along the path."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    if is_dataclass(value):
        return dataclasses.replace(value, **{step: _replaced(
            getattr(value, step), rest, new)})
    if isinstance(value, dict):
        return {**value, step: _replaced(value[step], rest, new)}
    items = list(value)
    items[step] = _replaced(items[step], rest, new)
    return type(value)(items)


def _at(value: Any, path: tuple) -> Any:
    for step in path:
        value = getattr(value, step) if is_dataclass(value) else value[step]
    return value


# Values of every type a trajectory's fields hold, and of others.
_SUBSTITUTES = (None, True, 7, 2.5, "text", [], ["x"], [1], (), ("x", "y"),
                {}, {"k": "v"}, {"k": 1}, frozenset({"x"}),
                SkillAction("Finish"),
                make_plan([("t", SkillAction("Finish"))]))


@pytest.fixture(scope="module")
def suite_trajectories() -> list[Trajectory]:
    """Every trajectory of a 7-category x 5-method oracle suite, read back
    from its log lines."""
    trajectories = []
    for category in CATEGORY_ORDER:
        task, env = generate_task(category, 1)
        for method in METHODS:
            trajectory = run_task(task, env, RunConfig(method=method),
                                  oracle_backend(task))
            trajectories.append(decode_trajectory(
                encode_trajectory(trajectory)))
    return trajectories


def test_the_built_checks_accept_every_trajectory_of_a_suite(
        suite_trajectories):
    assert len(suite_trajectories) == len(CATEGORY_ORDER) * len(METHODS)
    for trajectory in suite_trajectories:
        assert _refusal(_walk_check, trajectory) is None
        assert _refusal(check_types, trajectory) is None


def test_the_built_checks_refuse_a_mutated_value_as_the_walk_does(
        suite_trajectories):
    rng = random.Random(20261020)
    paths = [list(_paths(trajectory)) for trajectory in suite_trajectories]
    refused = 0
    for _ in range(1000):
        which = rng.randrange(len(suite_trajectories))
        path = rng.choice(paths[which])
        old = _at(suite_trajectories[which], path)
        new = rng.choice([value for value in _SUBSTITUTES
                          if type(value) is not type(old)])
        mutated = _replaced(suite_trajectories[which], path, new)
        expected = _refusal(_walk_check, mutated)
        assert _refusal(check_types, mutated) == expected, (path, new)
        refused += expected is not None
    # Most substitutes are of no type their field declares.
    assert 500 < refused < 1000
