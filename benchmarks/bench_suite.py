"""Suite benchmark: the library calls behind `goalact suite`, timed and checked.

    python3 benchmarks/bench_suite.py --workload oracle_suite --seed 1 \
        --seconds 20 --trace 0

One run generates its workload's fixtures (and, for replay_suite, records the
cassette) and writes a reference pass.  Then WORKERS fresh interpreters, one
after another, each time `generator.load_fixture` +
`suite.resolve_backend_factory` as set-up and repeat `suite.run_suite` with
artifacts written until their share of --seconds of suite wall time has been
measured.  Every pass must write the same bytes, and the artifacts are
checked against answers computed by checks.py.  With --trace 1 the run
alternates traced and untraced passes in this one process and reports
per-layer counts and self times instead of the end-to-end metrics.  Times
are this thread's CPU time at a reference machine speed (see CLOCK and
SpeedProbe).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from tracer import CLOCK, LAYERS, Tracer

# How fast goalact runs next to the speed probe differs from one interpreter
# to the next by a few percent for the whole life of the process, while the
# passes within one process agree closely; so a timed run measures in
# several fresh interpreters, one after another, and pools their passes.
WORKERS = 3
WORKER_TIMEOUT_S = 100
SETUP_REPEATS = 3  # per worker
MIN_PASSES = 2  # per worker, and per kind of pass in a traced run
MIN_SAMPLES = 1000  # task latencies a run needs before it reports a p99
SETUP_LAYERS = ("generator.load_fixture", "suite.resolve_backend_factory")
WORK_ROOT = inputs.REPO_ROOT / ".bench_work"


# The speed probe: fixed pure-Python work (JSON encoding, string splitting
# and joining) whose duration tracks how fast this shared machine runs at the
# moment.  Timings are reported at REFERENCE_PROBE_NS per probe, so host
# contention that slows the suite and the probe alike cancels out.
_PROBE_DOC = {f"k{i}": [i, f"v{i}", {"x": i}] for i in range(30)}
REFERENCE_PROBE_NS = 100_000
PROBE_EVERY = 5  # task runs between probes inside a pass
PROBE_WINDOW = 3  # probes on each side that set one task's local speed
PROBES_AROUND_SETUP = 10


def _probe_work() -> int:
    total = 0
    for _ in range(2):
        text = json.dumps(_PROBE_DOC)
        total += len("|".join(p.strip() for p in text.split(",") if "x" in p))
    return total


class SpeedProbe:
    def __init__(self):
        self.samples: list[int] = []  # probe durations, CLOCK ns
        self.starts: list[int] = []   # when each probe began, CLOCK ns

    def tick(self) -> None:
        # Collections are held off while the probe runs: one that falls due
        # runs at goalact's next allocation, so goalact's garbage-collection
        # cost never slows the probe and is never scaled away.
        enabled = gc.isenabled()
        gc.disable()
        start = CLOCK()
        _probe_work()
        end = CLOCK()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self.starts.append(start)

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Reference speed over measured speed; multiply a raw time by it.

        Uses the probes in samples[first:last].  The slowest tenth is
        dropped: a garbage collection or an interrupt can land in a probe.
        """
        window = sorted(self.samples[first:last])
        kept = window[:max(1, len(window) * 9 // 10)]
        return REFERENCE_PROBE_NS / (sum(kept) / len(kept))

    def local_factor(self, index: int) -> float:
        """The factor around the moment the index-th probe was due."""
        return self.factor(max(0, index - PROBE_WINDOW), index + PROBE_WINDOW)

    def scaled_seconds(self, start_ns: int, end_ns: int) -> float:
        """The interval [start_ns, end_ns] at the reference speed, probes left out.

        Each stretch between two probes is scaled by the probes around it.
        """
        total, resume = 0.0, start_ns
        for index, (begin, took) in enumerate(zip(self.starts, self.samples)):
            total += (begin - resume) * self.local_factor(index)
            resume = begin + took
        total += (end_ns - resume) * self.local_factor(len(self.samples))
        return total / 1e9


class TaskTimer:
    """Per-run_task latency, the per-task backend factory call included.

    The factory wrapper also runs the speed probe every PROBE_EVERY tasks,
    before the task's clock starts.  Methods run one after another, so each
    latency is scaled by the probes taken around it, not by the pass average.
    """

    def __init__(self):
        # method -> (raw ns, number of probes taken when the task started)
        self.samples: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.probe = SpeedProbe()
        self._calls = itertools.count(1)
        self._start = self._probes = 0
        self._patched = None

    def factory(self, inner):
        def timed_factory(task):
            if next(self._calls) % PROBE_EVERY == 0:
                self.probe.tick()
            self._probes = len(self.probe.samples)
            self._start = CLOCK()
            return inner(task)
        return timed_factory

    def start_pass(self) -> None:
        self.samples = defaultdict(list)
        self.probe = SpeedProbe()

    def install(self, suite_module) -> None:
        original = suite_module.run_task

        def timed_run_task(task, env, config, backend):
            trajectory = original(task, env, config, backend)
            self.samples[config.method].append(
                (CLOCK() - self._start, self._probes))
            return trajectory

        self._patched = (suite_module, original)
        suite_module.run_task = timed_run_task

    def uninstall(self) -> None:
        suite_module, original = self._patched
        suite_module.run_task = original


@dataclass
class PassLog:
    """What the measured passes of one run produced.

    times and latencies are CPU time at the reference probe speed; cpu and
    walls are the raw readings, walls only pace the run.
    """

    times: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    failed_passes: list[str] = field(default_factory=list)


class SuiteBench:
    def __init__(self, workload: inputs.Workload, made: dict, work: Path):
        from goalact import orchestrator, suite

        self.workload = workload
        self.made = made
        self.work = work
        self.suite = suite
        self.methods = list(orchestrator.METHODS)
        self.config = orchestrator.RunConfig()
        self.fixtures = made["fixtures"]
        self.task_count = made["task_count"]
        self.runs_per_pass = self.task_count * len(self.methods)
        self.pass_dir = work / "run"
        if workload.replay:
            self.spec = "replay:" + os.path.relpath(made["cassette"])
            self.reference = made["recorded"]
        else:
            self.spec = "scripted:oracle"
            self.reference = work / "reference"
        self.pairs = None
        self.factory = None
        self.digest = None  # of the first measured pass's artifacts

    # --- set-up and passes -------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """What `goalact suite` does before its first task.

        Returns (CPU seconds at the reference probe speed, probe factor).
        """
        self.pairs = self.factory = None
        gc.collect()
        probe = SpeedProbe()
        for _ in range(PROBES_AROUND_SETUP):
            probe.tick()
        start = CLOCK()
        self.pairs = inputs.load_pairs(self.fixtures)
        self.factory = self.suite.resolve_backend_factory(self.spec)
        raw = (CLOCK() - start) / 1e9
        for _ in range(PROBES_AROUND_SETUP):
            probe.tick()
        return raw * probe.factor(), probe.factor()

    def run_pass(self, out_dir: Path, factory=None) -> tuple[int, int, float]:
        """One suite pass; returns its CLOCK start and end and its wall seconds."""
        gc.collect()
        wall, start = time.perf_counter(), CLOCK()
        self.suite.run_suite(self.pairs, self.methods, self.config,
                             factory or self.factory, out_dir=out_dir,
                             backend_spec=self.spec)
        return start, CLOCK(), time.perf_counter() - wall

    def write_reference(self) -> None:
        """The untimed pass every measured pass is compared against.

        replay_suite's reference is the oracle run that recorded the cassette.
        """
        if not self.workload.replay:
            self.run_pass(self.reference)

    def measured_pass(self, log: PassLog, timer: TaskTimer) -> bool:
        timer.start_pass()
        try:
            start, end, wall = self.run_pass(self.pass_dir,
                                             timer.factory(self.factory))
        except Exception as exc:  # a raising pass is a failed operation
            log.failed_passes.append(f"pass raised {type(exc).__name__}: {exc}")
            return False
        digest = checks.digest(self.pass_dir)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            log.failed_passes.append("pass wrote different bytes than the first")
            return False
        log.walls.append(wall)
        log.cpu.append((end - start) / 1e9)
        log.factors.append(timer.probe.factor())
        log.times.append(timer.probe.scaled_seconds(start, end))
        for method, samples in timer.samples.items():
            log.latencies[method] += [ns * timer.probe.local_factor(probes)
                                      for ns, probes in samples]
        return True

    # --- verification ----------------------------------------------------------------

    def verify(self, log: PassLog) -> tuple[bool, int, int, checks.RunCheck]:
        """(correct, attempted, failed, check of the last pass written).

        Every measured pass wrote the same bytes, so checking the last one
        checks them all; a task run that fails a check fails in every pass.
        """
        attempted = (len(log.times) + len(log.failed_passes)) * self.runs_per_pass
        failed = len(log.failed_passes) * self.runs_per_pass
        if not log.times:
            return False, attempted, failed, checks.RunCheck()
        try:
            worlds = checks.load_worlds(self.fixtures)
            result = checks.check_run_dir(self.pass_dir, worlds, self.methods)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result = checks.RunCheck(
                suite_failures=[f"artifacts unreadable: {exc!r}"])
        # The replayed manifest names another backend than the oracle's.
        result.suite_failures += checks.compare_runs(
            self.reference, self.pass_dir,
            manifest_ignore=("backend", "config_hash") if self.workload.replay
            else ())
        for message in result.suite_failures:
            print(f"check failed: {message}", file=sys.stderr)
        for (method, task_id), problems in sorted(result.run_failures.items()):
            print(f"check failed: {method} {task_id}: {'; '.join(problems)}",
                  file=sys.stderr)
        good_passes = len(log.times)
        if result.suite_failures:
            failed += good_passes * self.runs_per_pass
        else:
            failed += good_passes * len(result.run_failures)
        return (result.ok and not log.failed_passes, attempted, failed,
                result)

    @staticmethod
    def measuring(seconds: float, *logs: PassLog) -> bool:
        """Pass again until `seconds` of suite wall time and MIN_PASSES per log."""
        if sum(len(log.failed_passes) for log in logs) > MIN_PASSES:
            return False
        return sum(sum(log.walls) for log in logs) < seconds \
            or any(len(log.times) < MIN_PASSES for log in logs)

    # --- the two kinds of run ------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """One worker's share of a timed run: set-ups and measured passes."""
        setups = [self.setup()[0] for _ in range(SETUP_REPEATS)]
        timer = TaskTimer()
        log = PassLog()
        timer.install(self.suite)
        try:
            while self.measuring(seconds, log):
                self.measured_pass(log, timer)
        finally:
            timer.uninstall()
        return {"setups": setups, "log": vars(log), "digest": self.digest,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                * 1024 / 1e6}

    def run_worker(self, seed: int, seconds: float) -> dict:
        """measure() in a fresh interpreter; it reads its inputs from work/."""
        made_file = self.work / "made.json"
        made_file.write_text(json.dumps(
            {key: str(value) if isinstance(value, Path) else value
             for key, value in self.made.items()}), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", self.workload.name, "--seed", str(seed),
             "--seconds", repr(seconds), "--worker", str(made_file)],
            stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
            check=False)
        if done.returncode != 0:
            raise SystemExit(f"benchmark: a worker exited with code "
                             f"{done.returncode}")
        return json.loads(done.stdout.splitlines()[-1])

    def timed(self, seed: int, seconds: float) -> dict:
        self.setup()
        self.write_reference()
        return self.summarize([self.run_worker(seed, seconds / WORKERS)
                               for _ in range(WORKERS)])

    def summarize(self, parts: list[dict]) -> dict:
        """Check the passes of every measure() part and pool their metrics."""
        setups, log = [], PassLog()
        first_digest = next((part["digest"] for part in parts
                             if part["digest"]), None)
        for part in parts:
            setups += part["setups"]
            passes = part["log"]
            log.failed_passes += passes["failed_passes"]
            if part["digest"] != first_digest:
                log.failed_passes += ["pass wrote different bytes than another "
                                      "worker's"] * len(passes["times"])
                continue
            for name in ("times", "cpu", "walls", "factors"):
                getattr(log, name).extend(passes[name])
            for method, samples in passes["latencies"].items():
                log.latencies[method] += samples
        correct, attempted, failed, result = self.verify(log)
        if not log.times:
            raise SystemExit("benchmark: no pass completed")
        everything = sorted(ns for samples in log.latencies.values()
                            for ns in samples)
        if len(everything) < MIN_SAMPLES:
            raise SystemExit(f"benchmark: {len(everything)} latencies are too "
                             f"few for a p99")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "task_runs_per_s": (statistics.median(
                self.runs_per_pass / cpu for cpu in log.times), "1/s"),
            "task_ms.p50": (quantile(everything, 0.50) / 1e6, "ms"),
            "task_ms.p99": (quantile(everything, 0.99) / 1e6, "ms"),
        }
        for method in self.methods:
            metrics[f"task_ms.p50.{method}"] = (
                quantile(sorted(log.latencies[method]), 0.50) / 1e6, "ms")
        metrics["artifact_mb"] = (checks.artifact_bytes(self.pass_dir) / 1e6, "MB")
        metrics["prompt_kib_per_task"] = (
            result.prompt_bytes / 1024 / max(1, result.task_runs), "KiB")
        metrics["peak_rss_mb"] = (max(part["peak_rss_mb"] for part in parts),
                                  "MB")
        report_passes(log, len(everything))
        return result_doc(correct, attempted, failed, metrics)

    def traced(self, seconds: float, spans_path: Path) -> dict:
        tracer = Tracer()
        with tracer:
            _, setup_factor = self.setup()
        slices = [(0, len(tracer.spans), setup_factor)]
        self.write_reference()
        timer = TaskTimer()
        plain, traced = PassLog(), PassLog()
        while self.measuring(seconds, plain, traced):
            self.measured_pass(plain, timer)
            first = len(tracer.spans)
            with tracer:
                if self.measured_pass(traced, timer):
                    slices.append((first, len(tracer.spans), traced.factors[-1]))
        log = PassLog(times=plain.times + traced.times,
                      failed_passes=plain.failed_passes + traced.failed_passes)
        correct, attempted, failed, _ = self.verify(log)
        if not traced.times or not plain.times:
            raise SystemExit("benchmark: no traced pass completed")
        tracer.write_spans(spans_path)
        metrics = layer_metrics(tracer, slices)
        passes = len(traced.times)
        calls: dict[str, int] = defaultdict(int)  # summed over traced passes
        for first, last, _ in slices[1:]:
            for name, (count, _) in tracer.layer_totals(first, last).items():
                calls[name] += count
        counters = tracer.counters

        def per(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        metrics.update({
            "oracle.builds_per_task": (per(
                calls["oracle.build_oracle_rules"], passes * self.task_count),
                "builds/task"),
            "planner.template_loads_per_round": (per(
                calls["planner.load_template"],
                calls["planner.update_global_plan"]), "loads/round"),
            "backends.rules_per_scripted_call": (per(
                counters["backends.rules_held"],
                calls["backends.ScriptedBackend.complete"]), "rules/call"),
            "environment.rows_scanned_per_call": (per(
                counters["environment.table_rows"],
                counters["environment.answered_calls"]), "rows/call"),
            "environment.rows_returned_per_scanned": (per(
                counters["environment.rows_returned"],
                counters["environment.table_rows"]), "ratio"),
            "sandbox.steps_per_eval": (per(
                counters["sandbox.steps"], calls["sandbox.eval_script"]),
                "steps/eval"),
            "plan.trajectory_kib_per_task": (per(
                counters["plan.trajectory_bytes"] / 1024,
                calls["plan.encode_trajectory"]), "KiB/task"),
            # One worker: the share of suite time spent inside run_task.
            "suite.worker_busy_share": (per(
                sum(tracer.total_ns("suite.run_task", a, b) for a, b, _
                    in slices[1:]) / 1e9,
                sum(traced.cpu)), "share"),
            "trace.overhead_share": (statistics.median(traced.times)
                                     / statistics.median(plain.times) - 1,
                                     "share"),
        })
        print("untraced passes:", file=sys.stderr)
        report_passes(plain, None)
        print("traced passes:", file=sys.stderr)
        report_passes(traced, None)
        return result_doc(correct, attempted, failed, metrics)


def layer_metrics(tracer: Tracer, slices: list[tuple[int, int, float]]) -> dict:
    """`<layer>.calls` and `<layer>.self_ms` per pass, per set-up for set-up layers.

    slices[0] holds the traced set-up's spans and each later slice one
    traced pass; self times are scaled by the slice's probe factor.
    """
    calls: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    for first, last, factor in slices:
        for name, (count, ns) in tracer.layer_totals(first, last).items():
            calls[name] += count
            self_ms[name] += ns * factor / 1e6
    passes = len(slices) - 1
    metrics = {}
    for module_name, qualname in LAYERS:
        name = f"{module_name}.{qualname}"
        divisor = 1 if name in SETUP_LAYERS else passes
        metrics[f"{name}.calls"] = (calls[name] / divisor, "count")
        metrics[f"{name}.self_ms"] = (self_ms[name] / divisor, "ms")
    return metrics


def report_passes(log: PassLog, samples) -> None:
    print(f"  wall s: {' '.join(f'{w:.3f}' for w in log.walls)}\n"
          f"  cpu s: {' '.join(f'{c:.3f}' for c in log.cpu)}\n"
          f"  probe factors: {' '.join(f'{f:.3f}' for f in log.factors)}\n"
          f"  cpu s at reference speed: "
          f"{' '.join(f'{t:.3f}' for t in log.times)}"
          + (f"\n  latency samples: {samples}" if samples else ""),
          file=sys.stderr)


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        raise SystemExit("benchmark: no latency samples")
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def result_doc(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    inputs.import_goalact()

    workload = inputs.WORKLOADS[args.workload]
    if args.worker:  # one measure() part of a timed run, as JSON
        made = json.loads(args.worker.read_text(encoding="utf-8"))
        made = {key: Path(value) if isinstance(value, str) else value
                for key, value in made.items()}  # every string is a path
        bench = SuiteBench(workload, made, args.worker.parent)
        print(json.dumps(bench.measure(args.seconds)))
        return 0
    work = WORK_ROOT / workload.name
    results = WORK_ROOT / "results"
    stem = f"{workload.name}-seed{args.seed}"
    try:
        made = inputs.prepare(workload, args.seed, work)
        for task_id in made.get("left_out", ()):
            print(f"left out {task_id}: another task sends the same request "
                  f"and the oracle answers it differently", file=sys.stderr)
        bench = SuiteBench(workload, made, work)
        if args.trace:
            doc = bench.traced(args.seconds, results / f"{stem}-spans.jsonl")
        else:
            doc = bench.timed(args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
