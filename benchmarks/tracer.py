"""Outside-in tracer: wraps goalact's public functions without touching src/.

goalact modules import functions by name (`from .planner import
update_global_plan`), so a wrapper is installed at every place a caller looks
the name up: each goalact module attribute that holds the original object,
or the class attribute for a method.  Each thread keeps its own span stack,
so a span's self time is its duration minus the time its traced children
took.  Spans stay in memory until `write_spans` is called.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

# (module, qualified name) of every traced layer function.
LAYERS = (
    ("oracle", "build_oracle_rules"),
    ("backends", "ScriptedBackend.complete"),
    ("backends", "CassetteReplayBackend.complete"),
    ("backends", "request_hash"),
    ("planner", "update_global_plan"),
    ("planner", "build_planning_prompt"),
    ("planner", "load_template"),
    ("planner", "parse_plan_response"),
    ("planner", "splice_pending"),
    ("skills", "dispatch"),
    ("environment", "ToolEnvironment.invoke_tool"),
    ("sandbox", "eval_script"),
    ("orchestrator", "summarize"),
    ("plan", "encode_trajectory"),
    ("plan", "write_trajectories"),
    ("evaluation", "success_rate"),
    ("evaluation", "aggregate"),
    ("generator", "load_fixture"),
    ("suite", "resolve_backend_factory"),
    ("suite", "run_task"),
    ("suite", "run_suite"),
)

# Every benchmark time is this thread's CPU time: on a shared VM the wall
# clock also counts the time the host runs other tenants on our vCPU (steal),
# which the kernel leaves out of thread CPU time.  Each thread's spans are
# timed on that thread's own clock.
CLOCK = time.thread_time_ns

Observer = Callable[["Tracer", tuple, Any], None]


def _observe_scripted(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("backends.rules_held", len(args[0].rules))


def _observe_invoke(tracer: "Tracer", args: tuple, result: Any) -> None:
    env, call = args[0], args[1]
    name = str(call.arguments.get("table", ""))
    rows = next((len(t.rows) for t in env.tables if t.name == name), 0)
    tracer.count("environment.answered_calls")  # calls that did not raise
    tracer.count("environment.table_rows", rows)
    tracer.count("environment.rows_returned", len(result))


def _observe_eval(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("sandbox.steps", result.steps_used)


def _observe_encode(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("plan.trajectory_bytes", len(result.encode("utf-8")))


OBSERVERS: dict[str, Observer] = {
    "backends.ScriptedBackend.complete": _observe_scripted,
    "environment.ToolEnvironment.invoke_tool": _observe_invoke,
    "sandbox.eval_script": _observe_eval,
    "plan.encode_trajectory": _observe_encode,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Observer] = None) -> Callable:
        clock, spans = CLOCK, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            # [id, ns spent in traced children, id of the outermost span]
            frame = [span_id, 0, parent[2] if parent else span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                spans.append((span_id, parent[0] if parent else 0, frame[2],
                              name, threading.get_ident(), start, dur,
                              dur - frame[1]))
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every lookup site of each layer function in loaded goalact modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "goalact" or n.startswith("goalact.")) and m]
        for module_name, qualname in LAYERS:
            module = sys.modules[f"goalact.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(name, original,
                                                   OBSERVERS.get(name)))
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(name, original, OBSERVERS.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_totals(self, first: int = 0, last: Optional[int] = None
                     ) -> dict[str, tuple[int, int]]:
        """name -> (calls, self ns) over spans[first:last]."""
        totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for _, _, _, name, _, _, _, self_ns in self.spans[first:last]:
            entry = totals[name]
            entry[0] += 1
            entry[1] += self_ns
        return {name: (calls, ns) for name, (calls, ns) in totals.items()}

    def total_ns(self, name: str, first: int = 0,
                 last: Optional[int] = None) -> int:
        """Summed duration, children included, of one layer's spans[first:last]."""
        return sum(span[6] for span in self.spans[first:last] if span[3] == name)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, root, name, thread, start, dur, self_ns \
                    in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "root": root, "name": name,
                    "thread": thread, "start_ns": start, "dur_ns": dur,
                    "self_ns": self_ns}) + "\n")
