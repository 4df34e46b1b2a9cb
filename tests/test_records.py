"""`records`: a field declared a record writes that record's fields in its
place, and reads them back."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pytest

from goalact.records import record_from_dict, record_to_dict


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
