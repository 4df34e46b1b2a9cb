"""Pins the scripted oracle's rules, byte for byte, and its miss text.

Any change to how the oracle assembles rules - their order, responses,
substrings or names - moves the digest; a rule build that is made lazy must
keep both pins.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from goalact.backends import user_request
from goalact.errors import RuleMiss
from goalact.generator import CATEGORY_ORDER, generate_task
from goalact.oracle import build_oracle_rules, oracle_backend

RULES_DIGEST = "d0e2c23d8dc1cf6e58d553024824253bcf794f1d33e3256f6f25edf22bb4bdee"


def test_oracle_rules_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for category in CATEGORY_ORDER:
        for seed in range(1, 21):
            for rule in build_oracle_rules(generate_task(category, seed)[0]):
                digest.update(json.dumps(
                    [rule.name, rule.response, list(rule.substrings),
                     rule.prompt_hash, rule.ordinal]).encode("utf-8"))
                count += 1
    assert count == 3860
    assert digest.hexdigest() == RULES_DIGEST


@pytest.mark.parametrize("category, task_id, closest", [
    ("2hop", "khop2-s00003", "khop-search1"),
    ("writing", "writing-s00003", "writing-search1"),
    ("aggregation", "agg-s00003", "agg-script"),
])
def test_a_prompt_without_a_marker_misses_naming_the_first_rule(
        category, task_id, closest):
    backend = oracle_backend(generate_task(category, 3)[0])
    with pytest.raises(RuleMiss) as miss:
        backend.complete(user_request("Say something helpful."))
    assert str(miss.value) == (
        f"[oracle:{task_id}] no rule matched call #1 (closest: {closest}); "
        "prompt starts: 'Say something helpful.'")
