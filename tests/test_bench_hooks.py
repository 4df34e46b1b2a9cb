"""The benchmark under `benchmarks/` reaches goalact by name: its tracer
patches each `LAYERS` function wherever goalact looks it up, its
`TaskTimer` patches `suite.run_task`, and its replay set-up shares one
`entries` dict among cassette recorders.  A rename in goalact that one of
these names misses fails here."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

import goalact.cli  # noqa: F401  (loads every goalact module)
from goalact import backends, suite
from goalact.generator import generate_khop_task
from goalact.oracle import oracle_backend
from goalact.orchestrator import METHOD_REACT, RunConfig

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules, imported from `benchmarks/`."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return {name: importlib.import_module(name)
            for name in ("tracer", "bench_suite", "inputs")}


def _goalact_names() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded goalact module and of its classes."""
    names = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "goalact"
                                  or module_name.startswith("goalact.")):
            continue
        for attr, value in vars(module).items():
            names[module_name, attr] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for name, member in vars(value).items():
                    names[module_name, f"{attr}.{name}"] = member
    return names


def _layer(module_name: str, qualname: str) -> object:
    """A layer function as its module or class holds it."""
    owner = importlib.import_module(f"goalact.{module_name}")
    *classes, attr = qualname.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    return vars(owner)[attr]


def test_the_tracer_wraps_every_layer_and_restores_it(bench):
    tracer = bench["tracer"]
    before = _goalact_names()
    originals = {layer: _layer(*layer) for layer in tracer.LAYERS}
    with tracer.Tracer() as spans:
        for layer, original in originals.items():
            wrapper = _layer(*layer)
            assert wrapper is not original, layer
            assert wrapper.__wrapped__ is original, layer
        backends.request_hash(backends.user_request("x"))
    assert [span[3] for span in spans.spans] == ["backends.request_hash"]
    after = _goalact_names()
    assert after.keys() == before.keys()
    assert [name for name in before if after[name] is not before[name]] == []


def test_the_task_timer_times_suite_run_task_and_restores_it(bench):
    original = suite.run_task
    timer = bench["bench_suite"].TaskTimer()
    timer.install(suite)
    try:
        assert suite.run_task is not original
        task, env = generate_khop_task(seed=1, k=1)
        backend = timer.factory(oracle_backend)(task)
        trajectory, fault = suite.run_recorded(
            task, env, RunConfig(method=METHOD_REACT), backend)
    finally:
        timer.uninstall()
    assert suite.run_task is original
    assert fault is None and trajectory.final_answer
    [(elapsed_ns, probes)] = timer.samples[METHOD_REACT]
    assert elapsed_ns > 0 and probes == 0


def test_the_replay_set_up_shares_one_entries_dict_among_recorders(
        bench, tmp_path):
    pairs = [generate_khop_task(seed=seed, k=1) for seed in (1, 2)]
    cassette = tmp_path / "cassette.jsonl"
    clashing = bench["inputs"].record_cassette(
        pairs, cassette, tmp_path / "recorded", [METHOD_REACT],
        RunConfig(method=METHOD_REACT))
    assert clashing == set()
    keys = [json.loads(line)["key"]
            for line in cassette.read_text(encoding="utf-8").splitlines()]
    assert len(keys) == len(set(keys)) > 0
    # An assigned `entries` is the one each recorder reads and fills.
    class Echo:
        def complete(self, request):
            return request.rendered().upper()

    shared: dict[str, str] = {}
    request, log = backends.user_request("x"), tmp_path / "shared.jsonl"
    for _ in range(2):
        recorder = backends.CassetteRecorder(Echo(), log)
        recorder.entries = shared
        assert recorder.complete(request) == "X"
    assert shared == {backends.request_hash(request): "X"}
    assert len(log.read_text(encoding="utf-8").splitlines()) == 1
