"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here uses scripted backends and generated fixtures; the
live-API smoke test runs against a loopback server that answers from the
task's oracle, and against a real endpoint when its environment variables
are set.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import time
import unicodedata

import pytest

from goalact.environment import Table, ToolEnvironment
from goalact.errors import GoalActError, PlanError
from goalact.evaluation import success_rate
from goalact.generator import (
    CATEGORY_ORDER,
    generate_aggregation_task,
    generate_khop_task,
    generate_task,
    generate_writing_task,
    load_fixture,
    save_fixture,
)
from goalact.oracle import oracle_backend
from goalact.orchestrator import METHODS, RunConfig, run_task
from goalact.plan import (
    FINISH,
    TERMINATION_FINISH,
    TERMINATION_MAX_ITERATIONS,
)
from goalact.planner import parse_plan_response, parse_step_texts, splice_pending
from goalact.sandbox import SandboxLimits, eval_script
from goalact.skills import parse_tool_emission
from goalact.suite import run_suite

from conftest import never_finishing_backend, oracle_server


def _verdict(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


# --- criterion 1: plan invariants under fuzzing -------------------------------------

_FUZZ_KINDS = ["Searching", "Coding", "Writing"]


def _fuzz_case(rng: random.Random) -> tuple[str, str | None]:
    """One fuzzed planner completion plus a pattern of the PlanError message
    it must trigger."""
    def step(kind: str, objective: str = "obj") -> dict:
        return {"Thinking": f"th{rng.randrange(100)}",
                "Action": f"{kind}[{objective}]"}

    body = [step(rng.choice(_FUZZ_KINDS)) for _ in range(rng.randrange(0, 5))]
    case = rng.randrange(7)
    if case == 0:  # valid plan
        doc = body + [{"Thinking": "done", "Action": "Finish[]"}]
        text = json.dumps(doc)
        if rng.random() < 0.3:
            text = f"```json\n{text}\n```"
        return text, None
    if case == 1:  # no terminal Finish
        doc = body + [step(rng.choice(_FUZZ_KINDS))]
        return json.dumps(doc), "must end with a Finish step"
    if case == 2:  # Finish before the last step (terminal Finish present)
        doc = (body + [{"Thinking": "early", "Action": "Finish[]"}]
               + [step(rng.choice(_FUZZ_KINDS))]
               + [{"Thinking": "done", "Action": "Finish[]"}])
        return json.dumps(doc), r"Finish at step \d+ is not terminal"
    if case == 3:  # unknown skill kind
        doc = body + [step("Teleport"), {"Thinking": "d", "Action": "Finish[]"}]
        return json.dumps(doc), "kind 'Teleport' is not a registered skill"
    if case == 4:  # empty array
        return "[]", "the parsed plan has no steps"
    if case == 5:  # not an array at all
        return rng.choice(["prose with no array", '{"Thinking": "x"}',
                           "[{broken json"]), \
        "holds no parseable array|expected an array, got dict"
    # wrong keys
    doc = body + [{"Thinking": "x", "Act": "Finish[]"}]
    return json.dumps(doc), "must have exactly the keys Thinking and Action"


def test_acceptance_plan_invariants_fuzz():
    rng = random.Random(20240401)
    started = time.monotonic()
    accepted = rejected = 0
    for _ in range(10_000):
        text, expected = _fuzz_case(rng)
        try:
            parsed = parse_plan_response(text)
            plan = splice_pending((), parsed, revision=1)
        except PlanError as exc:
            assert expected is not None, f"valid plan rejected: {exc}"
            assert re.search(expected, str(exc)), \
                f"expected {expected!r}, got {exc}"
            rejected += 1
            continue
        assert expected is None, f"{expected!r} case passed validation"
        finishes = [s for s in plan.steps if s.action.kind == FINISH]
        assert len(finishes) == 1
        assert finishes[0].index == len(plan.steps)
        accepted += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"fuzzing took {elapsed:.1f}s (budget 10s)"
    _verdict("plan-invariants",
             f"10000 fuzzed outputs, {accepted} accepted / {rejected} "
             f"rejected correctly in {elapsed:.1f}s")


_SOUP_TOKENS = ['[', ']', '{', '}', '(', ')', '"', "'", ':', ',', '\\', ' ',
                '\n', '```', '```json\n', '"Thinking"', '"Action"', '"tool"',
                '"args"', '"Thought"', 'Finish[]', 'Searching[', 'Coding[x]',
                'get_record', 'filter_records', 'return', 'for', 'in', 'if',
                'while', '==', '+', '/', '=', '.', '1', '9' * 40, '1e999',
                '-0.5', 'true', 'null', 'NaN', '\u00e9', '\ud800', 'x', 'rows']
_OPENERS = [("[", "]"), ('{"a":', "}"), ("(", ")"), ('[{"Thinking":', "}]"),
            ('{"tool": "get_record", "args": {"value":', "}}")]
_WELL_FORMED = [
    json.dumps([{"Thinking": "t", "Action": "Searching[find the record]"},
                {"Thinking": "d", "Action": "Finish[]"}]),
    json.dumps({"tool": "get_record",
                "args": {"table": "companies", "field": "name",
                         "value": "AlphaCorp"}}),
    json.dumps({"Thought": "look", "Action": "get_record[table=companies]"}),
    'rows = filter_records("cases", "status", "open")\nreturn rows',
]


def _hostile_completion(rng: random.Random) -> str:
    """A random token soup, a random bracket/brace nesting, or a truncated
    well-formed completion."""
    case = rng.randrange(3)
    if case == 0:
        return "".join(rng.choice(_SOUP_TOKENS)
                       for _ in range(rng.randrange(200)))
    if case == 1:
        opener, closer = rng.choice(_OPENERS)
        # One nesting in 25 is 100,000 deep: the sandbox tokenizes all of
        # it before its depth cap rejects it, about 0.3 s a case.
        depth = 100_000 if rng.randrange(25) == 0 else \
            rng.choice([rng.randrange(1, 64), rng.randrange(64, 3000)])
        closed = rng.choice([depth, rng.randrange(depth + 1), 0])
        return opener * depth + "0" + closer * closed
    text = rng.choice(_WELL_FORMED)
    return text[:rng.randrange(len(text) + 1)]


def test_acceptance_hostile_completion_fuzz():
    """Whatever a model emits, the parsers raise only package errors and the
    sandbox returns a result, each within a time bound."""
    env = generate_khop_task(seed=1, k=2)[1]
    # Each returns whether it rejected the text without raising.
    parsers = {
        "parse_step_texts": lambda text: not parse_step_texts(text),
        "parse_plan_response": lambda text: not parse_plan_response(text),
        "parse_tool_emission":
            lambda text: parse_tool_emission(text)[1] is not None,
        "eval_script": lambda text: eval_script(text, env).fault is not None,
    }
    rng = random.Random(20261018)
    started = time.monotonic()
    slowest = 0.0
    rejected = 0
    for _ in range(1_000):
        text = _hostile_completion(rng)
        for name, parse in parsers.items():
            began = time.monotonic()
            try:
                rejected += parse(text)
            except GoalActError:
                rejected += 1
            case_time = time.monotonic() - began
            slowest = max(slowest, case_time)
            assert case_time < 1.0, (name, text[:80], case_time)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"fuzzing took {elapsed:.1f}s (budget 10s)"
    _verdict("hostile-completions",
             f"1000 fuzzed completions x 4 parsers, {rejected} rejected as "
             f"data, slowest case {slowest * 1000:.0f} ms, {elapsed:.1f}s in "
             "all")


# --- criterion 2: prefix preservation over 500 runs ----------------------------------

def test_acceptance_prefix_preservation():
    runs = 0
    for k in range(1, 6):
        for seed in range(100):
            task, env = generate_khop_task(seed=seed, k=k)
            traj = run_task(task, env, RunConfig(method="GoalAct"),
                            oracle_backend(task))
            assert len(traj.revisions) >= 2
            executed_so_far: list[tuple] = []
            for plan in traj.revisions:
                executed = [(s.thought, s.action.kind, s.action.objective,
                             s.observation)
                            for s in plan.steps if s.executed]
                assert executed[:len(executed_so_far)] == executed_so_far, \
                    f"{task.id}: executed prefix rewritten"
                executed_so_far = executed
            runs += 1
    assert runs == 500
    _verdict("prefix-preservation",
             "500 multi-revision runs, executed triples never rewritten")


# --- criterion 3: oracle end-to-end + termination cap --------------------------------

def _step_bound(task) -> int:
    return len(task.recipe.get("hops", [])) + 2 if task.recipe["kind"] == "khop" \
        else len(task.gold_path) + 2


def test_acceptance_oracle_end_to_end():
    started = time.monotonic()
    per_category = 50
    solved = 0
    for category in CATEGORY_ORDER:
        for seed in range(per_category):
            task, env = generate_task(category, seed)
            traj = run_task(task, env, RunConfig(method="GoalAct"),
                            oracle_backend(task))
            score = success_rate(task.key_answers, traj.final_answer or "",
                                 task_id=task.id)
            assert score.s == 1.0, (task.id, score.missing)
            assert traj.termination_reason == TERMINATION_FINISH, task.id
            assert traj.step_count <= _step_bound(task), task.id
            solved += 1

    task, env = generate_khop_task(seed=0, k=1)
    capped = run_task(task, env, RunConfig(method="GoalAct"),
                      never_finishing_backend())
    assert capped.step_count == 10
    assert capped.termination_reason == TERMINATION_MAX_ITERATIONS

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s (budget 60s)"
    _verdict("oracle-end-to-end",
             f"{solved} tasks across {len(CATEGORY_ORDER)} categories solved "
             f"with s=1 in {elapsed:.1f}s; cap held at t=10")


# --- criterion 4: sandbox oracle equivalence ------------------------------------------

def _aggregation_script(recipe) -> str:
    return "\n".join([
        'rows = filter_records("%s", "%s", "%s")'
        % (recipe["table"], recipe["filter_field"], recipe["filter_value"]),
        "total = 0",
        "for r in rows { total = total + r.%s }" % recipe["sum_field"],
        "return total",
    ])


def _with_decimal_amounts(env: ToolEnvironment, seed: int) -> ToolEnvironment:
    """`env` with every invoice's amount redrawn as a two-place decimal."""
    rng = random.Random(f"decimal:{seed}")
    (table,) = env.tables
    rows = tuple({**row, "amount": round(rng.uniform(100.0, 9999.0), 2)}
                 for row in table.rows)
    return ToolEnvironment(tables=(Table(table.name, table.key_field, rows),))


def test_acceptance_sandbox_oracle_equivalence():
    checked = 0
    for seed in range(50):
        for decimal_amounts in (False, True):
            task, env = generate_aggregation_task(seed=seed)
            if decimal_amounts:
                env = _with_decimal_amounts(env, seed)
            recipe = task.recipe
            result = eval_script(_aggregation_script(recipe), env,
                                 SandboxLimits())
            assert result.fault is None, (task.id, result.fault)
            table = env.table(recipe["table"])
            brute = sum(row[recipe["sum_field"]] for row in table.rows
                        if row[recipe["filter_field"]] == recipe["filter_value"])
            if decimal_amounts:
                assert abs(result.raw_value - brute) <= 1e-9 * abs(brute), \
                    task.id
            else:
                assert result.raw_value == brute, task.id
            checked += 1
    assert checked == 100
    _verdict("sandbox-oracle-equivalence",
             "100 randomized aggregation fixtures match brute force "
             "(integers exact, decimals within 1e-9 relative)")


# --- criterion 5: metric correctness ---------------------------------------------------

def test_acceptance_metric_correctness():
    assert success_rate({"AlphaCorp", "2019-04"},
                        "AlphaCorp filed in 2019-04.").s == 1.0
    assert success_rate({"AlphaCorp", "2019-04"}, "just AlphaCorp").s == 0.5
    assert success_rate({"x"}, "").s == 0.0

    rng = random.Random(424242)
    alphabet = "abcde -"
    for _ in range(1000):
        keywords = set()
        while not keywords:
            keywords = {"".join(rng.choice(alphabet)
                                for _ in range(rng.randint(1, 7))).strip()
                        for _ in range(rng.randint(1, 6))}
            keywords.discard("")
        output = "".join(rng.choice(alphabet)
                         for _ in range(rng.randint(0, 80)))
        score = success_rate(keywords, output)
        oracle_matched = set()
        for keyword in keywords:  # brute-force substring oracle
            if unicodedata.normalize("NFC", keyword) in \
                    unicodedata.normalize("NFC", output):
                oracle_matched.add(keyword)
        assert score.matched == oracle_matched
        assert score.s == len(oracle_matched) / len(keywords)
    _verdict("metric-correctness",
             "3 documented examples plus 1000 randomized pairs match the "
             "brute-force substring oracle exactly")


# --- criterion 6: ablation separations ---------------------------------------------------

def _mean_score(category_seeds, make_task, ablations) -> float:
    scores = []
    for seed in category_seeds:
        task, env = make_task(seed)
        config = RunConfig(method="GoalAct", ablations=ablations)
        traj = run_task(task, env, config, oracle_backend(task))
        scores.append(success_rate(task.key_answers,
                                   traj.final_answer or "").s)
    return sum(scores) / len(scores)


def test_acceptance_ablation_separations():
    seeds = range(10)
    agg_full = _mean_score(seeds, generate_aggregation_task, frozenset())
    agg_nocode = _mean_score(seeds, generate_aggregation_task,
                             frozenset({"no_coding"}))
    assert agg_full == 1.0
    assert agg_nocode == 0.0

    writing_full = _mean_score(seeds, generate_writing_task, frozenset())
    writing_nowrite = _mean_score(seeds, generate_writing_task,
                                  frozenset({"no_writing"}))
    assert writing_full == 1.0
    assert writing_full > writing_nowrite
    _verdict("ablation-separations",
             f"aggregation 1.0 vs 0.0 without coding; writing "
             f"{writing_full:.2f} > {writing_nowrite:.2f} without writing")


# --- criterion 7: suite determinism -------------------------------------------------------

# sha256 of every artifact of the 14-task x 5-method oracle suite below.
_SUITE_DIGESTS = {
    "manifest.json":
        "53397e01ce7679b94dee332848ee4884994bf5692c4735d1c1d82565402bfdca",
    "report.json":
        "1a7133f4c7b4f721fe8d2e4dd29bec385cae4e9b523bc2ef9a0e3f973a2ed604",
    "report.txt":
        "65b47d2713b9d25696fd9699adec193e52de67d1535363f48e77cda181dd58b1",
    "trajectories/GoalAct.jsonl":
        "e0f6858f93d394f2d1c36b7e23f4b1ec77fb06720799be4faa8ed751759e3d85",
    "trajectories/PlanAndSolve.jsonl":
        "4fee5fd1b277894868287db446804e8ef1d02c31e5106ddf82b44c2d2b34e90e",
    "trajectories/PlanAndExecute.jsonl":
        "8503820ee57f945c58fcbd07e0206d12322fbcc6568ccc7faf00ae724a3bba45",
    "trajectories/ReAct.jsonl":
        "63f49bc9d7e89c9f8fdfec7c8e4f4ea2f0c49c65dea6a7cf3e40f4cf7c15a0c5",
    "trajectories/CodeAct.jsonl":
        "82a5f2b1585159fe5d53f23f1d5c64f52c880e4e29a844f7dd775e52122bb03e",
}


def test_acceptance_suite_determinism(tmp_path):
    pairs = [generate_task(category, seed)
             for category in CATEGORY_ORDER for seed in range(2)]
    config = RunConfig(method="GoalAct")
    out_a, out_b = tmp_path / "run-a", tmp_path / "run-b"
    out_jobs = tmp_path / "run-jobs2"
    for out, jobs in ((out_a, 1), (out_b, 1), (out_jobs, 2)):
        run_suite(pairs, list(METHODS), config, oracle_backend,
                  out_dir=out, backend_spec="scripted:oracle", jobs=jobs)
    for out in (out_a, out_jobs):
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                         if p.is_file())
        assert written == sorted(_SUITE_DIGESTS)
    for name, digest in _SUITE_DIGESTS.items():
        a, b = (out_a / name).read_bytes(), (out_b / name).read_bytes()
        assert a == b, name
        assert hashlib.sha256(a).hexdigest() == digest, name
        if name != "manifest.json":
            assert (out_jobs / name).read_bytes() == a, name
    # Two worker threads change only the manifest's record of the job count.
    manifest = json.loads((out_a / "manifest.json").read_text("utf-8"))
    assert json.loads((out_jobs / "manifest.json").read_text("utf-8")) == \
        dict(manifest, jobs=2)
    _verdict("determinism",
             "two suite runs with one manifest produced byte-identical "
             "reports and trajectories, matching the pinned digests, and "
             "a two-thread run wrote the same bytes but for the job count")


# sha256 of every artifact of the 350-task x 5-method oracle suite: the seven
# categories x generator seeds 1000-1049, run from saved and reloaded fixtures.
_WIDE_SUITE_DIGESTS = {
    "manifest.json":
        "42f39340654d103ca74483c450d673a2504396d60b6d91e94642102c961cbb17",
    "report.json":
        "2a284d7a0ec69b273855fb3447755f9a9d570223a85f3d3c1841e58461dbfcf4",
    "report.txt":
        "0d06c7d41cc084a0364217779bd08f53edde4ab7be353133f64df6a0cd3b5988",
    "trajectories/GoalAct.jsonl":
        "7efaa2d6c76858515df0721e4236bb486bb489c2a1256471daf68932df926f52",
    "trajectories/PlanAndSolve.jsonl":
        "7cebedaa109e14896564119b7402ed6fb9768c04d4d4de91a8307d0a6c2d6aa1",
    "trajectories/PlanAndExecute.jsonl":
        "c45497201a952b62c5204943c01ba28da96b1e5a54881bfbaaaecae5c174ac2d",
    "trajectories/ReAct.jsonl":
        "0213960f48dfe1f04a8c23fd746ea299bf3c5830dcd64c9cb2d562ee3bd646e4",
    "trajectories/CodeAct.jsonl":
        "01dd7e87d01e6a494bbd2f50b926788d5a3fe3d768cdc1ee7ea67ed1b0d5d384",
}


def test_acceptance_350_task_suite_bytes(tmp_path):
    fixtures, out = tmp_path / "fixtures", tmp_path / "run"
    for category in CATEGORY_ORDER:
        for seed in range(1000, 1050):
            save_fixture(*generate_task(category, seed), fixtures)
    pairs = [load_fixture(path)
             for path in sorted((fixtures / "tasks").glob("*.json"))]
    assert len(pairs) == 350
    run_suite(pairs, list(METHODS), RunConfig(), oracle_backend, out_dir=out,
              backend_spec="scripted:oracle")
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                     if p.is_file())
    assert written == sorted(_WIDE_SUITE_DIGESTS)
    for name, digest in _WIDE_SUITE_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            digest, name
    _verdict("350-task-bytes",
             "the 350-task x 5-method oracle suite wrote its pinned bytes")


# --- criterion 8: live-API smoke -------------------------------------------------------

_LIVE_VARS = ("GOALACT_API_BASE", "GOALACT_API_KEY", "GOALACT_MODEL")


@pytest.fixture(params=["loopback", "endpoint"])
def live_api(request, monkeypatch):
    """The endpoint the smoke calls, as its environment variables name it:
    a loopback server answering from the task's oracle, or the real one
    the variables already name, when they are all set."""
    if request.param == "endpoint":
        if not all(os.environ.get(v) for v in _LIVE_VARS):
            pytest.skip("live smoke needs " + ", ".join(_LIVE_VARS))
        yield
        return
    request.getfixturevalue("loopback_only")
    with oracle_server([generate_khop_task(seed=1, k=1)[0]]) as base:
        for name, value in zip(_LIVE_VARS, (base, "loopback", "scripted")):
            monkeypatch.setenv(name, value)
        yield


def test_acceptance_live_api_smoke(live_api):
    from goalact.backends import HttpChatBackend

    backend = HttpChatBackend(
        endpoint=os.environ["GOALACT_API_BASE"],
        api_key=os.environ["GOALACT_API_KEY"],
        model=os.environ["GOALACT_MODEL"],
    )
    task, env = generate_khop_task(seed=1, k=1)
    config = RunConfig(method="GoalAct",
                       model=os.environ["GOALACT_MODEL"])
    trajectory = run_task(task, env, config, backend)
    # No score threshold: the contract is completing without parser failure.
    assert trajectory.termination_reason in (TERMINATION_FINISH,
                                             TERMINATION_MAX_ITERATIONS)
    assert trajectory.final_answer is not None
    _verdict("live-api-smoke",
             f"1-hop task completed via {os.environ['GOALACT_MODEL']} "
             f"({trajectory.termination_reason})")
