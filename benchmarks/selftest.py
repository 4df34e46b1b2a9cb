"""Self-test: every benchmark check passes on good output and rejects bad output.

    python3 benchmarks/selftest.py

Runs a small padded oracle suite, confirms the checks in checks.py accept
it (and that jobs=2 writes the same bytes as jobs=1), then corrupts copies of its artifacts (a final answer, a logged tool
result, a termination reason, a report mean, a manifest key, a missing run,
a fixture table) and confirms each corruption is caught.  It also checks that
the tracer's self times add up to the traced durations, and that a known CPU
cost added to every run_task shows in full in the scaled timings.  Exits
non-zero when any expectation fails.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import bench_suite
import checks
import inputs
from tracer import Tracer

FAILURES: list[str] = []
BURN_LOOPS = 20_000  # about 1 ms of arithmetic at the reference speed
CALIBRATION_SECONDS = 4
# Share of the added cost the readings may miss.  The probe's speed and pure
# arithmetic's speed do not move together exactly: from one 0.5 s window to
# the next, burn() took 10 to 15.7 probe times on a shared 2-core VM.
CALIBRATION_TOLERANCE = 0.3


def expect(label: str, condition: bool) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        FAILURES.append(label)


def edit_trajectory(run_dir: Path, method: str, change) -> str:
    """Apply change(doc) to the first trajectory of `method` that it accepts."""
    path = run_dir / "trajectories" / f"{method}.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if change(doc):
            lines[i] = json.dumps(doc, ensure_ascii=False, separators=(",", ":"))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return doc["task_id"]
    raise AssertionError(f"no {method} trajectory accepted the change")


def corrupt_answer(doc: dict) -> bool:
    doc["final_answer"] = "The answer could not be found."
    return True


def corrupt_tool_result(doc: dict) -> bool:
    for record in doc["tool_calls"]:
        if record["ok"] and record["result"].startswith("[{"):
            rows = json.loads(record["result"])
            key = next(iter(rows[0]))
            rows[0][key] = f"{rows[0][key]}-altered"
            record["result"] = json.dumps(rows, ensure_ascii=False)
            return True
    return False


def burn() -> int:
    """Fixed pure-Python arithmetic: the known cost the calibration adds."""
    total = 0
    for i in range(BURN_LOOPS):
        total += i * i
    return total


def burn_reference_ms() -> float:
    """burn()'s time at the benchmark's reference probe speed, in ms.

    Measured next to the probe: each burn() is scaled by the probes
    around it, the way the benchmark scales a task run.
    """
    probe = bench_suite.SpeedProbe()
    took = []
    for _ in range(300):
        probe.tick()
        start = bench_suite.CLOCK()
        burn()
        took.append(bench_suite.CLOCK() - start)
    return statistics.median(ns * probe.local_factor(i)
                             for i, ns in enumerate(took, 1)) / 1e6


def calibrate(work: Path) -> None:
    """A known CPU cost added to every run_task survives the probe scaling.

    Times an oracle suite as it is and with burn() run at the start of every
    run_task call, and expects the time per task run and the latency median
    to grow by burn()'s own time at the reference speed, measured before,
    between and after the two timings.
    """
    from goalact import suite

    workload = inputs.Workload("calibration", seeds_per_category=20)
    made = inputs.prepare(workload, seed=9, work=work)
    bench = bench_suite.SuiteBench(workload, made, work)
    bench.setup()
    bench.write_reference()

    def timed() -> dict:
        # In this process, where the patched run_task is seen; a timed run
        # does the same in each of its workers.
        return bench.summarize([bench.measure(CALIBRATION_SECONDS)])

    burn_ms = [burn_reference_ms()]
    plain = timed()
    burn_ms.append(burn_reference_ms())
    original = suite.run_task

    def burning_run_task(task, env, config, backend):
        burn()
        return original(task, env, config, backend)

    suite.run_task = burning_run_task
    try:
        burnt = timed()
    finally:
        suite.run_task = original
    burn_ms.append(burn_reference_ms())
    added = statistics.median(burn_ms)
    expect("calibration runs pass every check",
           plain["correct"] and burnt["correct"])

    def ms_per_run(doc: dict) -> float:
        return 1000 / doc["metrics"]["task_runs_per_s"]["value"]

    moves = {"1000 / task_runs_per_s": ms_per_run(burnt) - ms_per_run(plain),
             "task_ms.p50": (burnt["metrics"]["task_ms.p50"]["value"]
                             - plain["metrics"]["task_ms.p50"]["value"])}
    for name, moved in moves.items():
        expect(f"{name} grows by the added {added:.3f} ms (grew {moved:.3f})",
               abs(moved - added) <= CALIBRATION_TOLERANCE * added)


def main() -> int:
    inputs.import_goalact()
    from goalact import oracle, orchestrator, suite

    methods = list(orchestrator.METHODS)
    workload = inputs.Workload("selftest", seeds_per_category=2, pad_rows=40)
    scratch = inputs.REPO_ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Path(tmp)
        made = inputs.prepare(workload, seed=5, work=work / "inputs")
        pairs = inputs.load_pairs(made["fixtures"])
        good = work / "good"
        suite.run_suite(pairs, methods, orchestrator.RunConfig(),
                        oracle.oracle_backend, out_dir=good)
        worlds = checks.load_worlds(made["fixtures"])

        # The independent answers agree with the generator's own keywords.
        fixture_keys = {
            doc["id"]: frozenset(doc["key_answers"]) for doc in (
                json.loads(p.read_text(encoding="utf-8"))
                for p in (made["fixtures"] / "tasks").glob("*.json"))}
        expect("own expected answers equal the fixtures' key answers",
               all(checks.expected_answers(w) == fixture_keys[tid]
                   for tid, w in worlds.items()))

        two = work / "jobs2"
        suite.run_suite(pairs, methods, orchestrator.RunConfig(),
                        oracle.oracle_backend, out_dir=two, jobs=2)
        expect("jobs=2 writes the jobs=1 bytes except the manifest's jobs key",
               checks.compare_runs(good, two, manifest_ignore=("jobs",)) == [])

        clean = checks.check_run_dir(good, worlds, methods)
        expect("clean run passes every check", clean.ok)
        expect("clean run counts every task run",
               clean.task_runs == len(worlds) * len(methods))

        def variant(name: str) -> Path:
            target = work / name
            shutil.copytree(good, target)
            return target

        bad = variant("answer")
        task_id = edit_trajectory(bad, "GoalAct", corrupt_answer)
        result = checks.check_run_dir(bad, worlds, methods)
        expect("corrupted GoalAct answer fails the 1.0 score check",
               ("GoalAct", task_id) in result.run_failures)
        expect("corrupted GoalAct answer fails the report-mean check",
               any("report says" in m for m in result.suite_failures))
        expect("corrupted answer fails the byte comparison",
               checks.compare_runs(good, bad) != [])
        expect("corrupted answer changes the pass digest",
               checks.digest(good) != checks.digest(bad))

        bad = variant("react-answer")
        edit_trajectory(bad, "ReAct", lambda doc: doc["task_id"].startswith(
            "khop") and corrupt_answer(doc))
        result = checks.check_run_dir(bad, worlds, methods)
        expect("corrupted ReAct answer fails the report-mean check",
               any(m.startswith("ReAct/") for m in result.suite_failures))

        bad = variant("tool")
        task_id = edit_trajectory(bad, "PlanAndExecute", corrupt_tool_result)
        result = checks.check_run_dir(bad, worlds, methods)
        expect("corrupted tool result fails the table-scan check",
               any("differ from" in p for p in
                   result.run_failures.get(("PlanAndExecute", task_id), [])))
        expect("corrupted tool result fails the byte comparison",
               checks.compare_runs(good, bad) != [])

        bad = variant("termination")
        task_id = edit_trajectory(
            bad, "CodeAct",
            lambda doc: doc.update(termination_reason="max_iterations") or True)
        result = checks.check_run_dir(bad, worlds, methods)
        expect("a run not ending in finish fails",
               ("CodeAct", task_id) in result.run_failures)

        bad = variant("report")
        report = json.loads((bad / "report.json").read_text(encoding="utf-8"))
        report["rows"][0]["per_category"]["1hop"] -= 0.5
        (bad / "report.json").write_text(json.dumps(report), encoding="utf-8")
        result = checks.check_run_dir(bad, worlds, methods)
        expect("a wrong report mean fails", bool(result.suite_failures))

        bad = variant("missing")
        path = bad / "trajectories" / "ReAct.jsonl"
        path.write_text("".join(path.read_text(encoding="utf-8")
                                .splitlines(keepends=True)[1:]), encoding="utf-8")
        result = checks.check_run_dir(bad, worlds, methods)
        expect("a missing trajectory fails", bool(result.suite_failures))

        bad = variant("jobs")
        manifest = json.loads((bad / "manifest.json").read_text(encoding="utf-8"))
        manifest["jobs"] = 2
        (bad / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        expect("a manifest differing only in jobs passes the jobs comparison",
               checks.compare_runs(good, bad, manifest_ignore=("jobs",)) == [])
        expect("the same manifest fails the plain byte comparison",
               checks.compare_runs(good, bad) != [])
        manifest["backend"] = "replay:elsewhere"
        (bad / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        expect("any other manifest change fails the jobs comparison",
               checks.compare_runs(good, bad, manifest_ignore=("jobs",)) != [])

        # A corrupted fixture table changes the expected answers, so the
        # (unchanged) run output no longer scores 1.0.
        khop = next(w for w in worlds.values() if w.category == "1hop")
        answer = next(iter(checks.expected_answers(khop)))
        for rows in khop.tables.values():
            for row in rows:
                for key, value in row.items():
                    if value == answer:
                        row[key] = f"{answer}-altered"
        result = checks.check_run_dir(good, worlds, methods)
        expect("an answer changed in the tables fails the score check",
               ("GoalAct", khop.task_id) in result.run_failures)

        # Tracer: self times under each root add up to the root's duration.
        tracer = Tracer()
        with tracer:
            suite.run_suite(pairs, methods, orchestrator.RunConfig(),
                            oracle.oracle_backend, out_dir=work / "traced")
        expect("tracer restores every patched name",
               suite.run_task is orchestrator.run_task)
        totals = tracer.layer_totals()
        expect("tracer sees every run_task call",
               totals["suite.run_task"][0] == len(pairs) * len(methods))
        builds = totals["oracle.build_oracle_rules"][0]
        expect("tracer sees at least one oracle build per task and at most "
               "one per run_task call",
               len(pairs) <= builds <= totals["suite.run_task"][0])
        roots = [s for s in tracer.spans if s[1] == 0]
        expect("every traced pass has one root span", len(roots) == 1)
        expect("self times under the root sum to its duration",
               sum(s[7] for s in tracer.spans) == roots[0][6])
        expect("traced pass writes the same bytes as the untraced pass",
               checks.compare_runs(good, work / "traced") == [])

        calibrate(work / "calibration")

    print(f"{len(FAILURES)} expectation(s) failed" if FAILURES
          else "every expectation held")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
