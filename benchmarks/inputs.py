"""Benchmark inputs: seeded fixtures, wide-table padding and the replay cassette.

Every input is derived from the workload name and the seed, so the same
(workload, seed) pair always writes the same files.  Nothing here is timed.

Run it as a script to regenerate a workload's inputs from scratch:

    python3 benchmarks/inputs.py --workload replay_suite --seed 7 \
        --out .bench_work/inputs
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

# The generator mints codes with the prefixes CT, AC, SH, IN, REF, P, REG, L,
# BAR, SEC and C, names from fixed word lists and ISO dates; it never mints a
# value that starts with this prefix, so no filler value can equal a lookup.
FILLER_PREFIX = "ZQX-"
PAD_ROWS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    seeds_per_category: int
    replay: bool = False
    pad_rows: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("oracle_suite", seeds_per_category=50),
        Workload("replay_suite", seeds_per_category=50, replay=True),
        Workload("wide_tables", seeds_per_category=10, pad_rows=PAD_ROWS),
    )
}


def import_goalact():
    """Import goalact from this checkout's src/, never from site-packages."""
    if not (SRC_DIR / "goalact" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no goalact sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import goalact

    if Path(goalact.__file__).resolve().parent != SRC_DIR / "goalact":
        raise SystemExit(f"benchmark: goalact imported from {goalact.__file__}, "
                         f"not from {SRC_DIR}")
    return goalact


def task_seeds(seed: int, count: int) -> list[int]:
    """The generator seeds one benchmark seed expands to, per category."""
    return [seed * 1000 + j for j in range(count)]


def pad_table(table, pad_rows: int, rng: random.Random):
    """Append filler rows after the originals, keeping the first row's field order."""
    template = table.rows[0]
    filler = []
    for _ in range(pad_rows):
        row = {}
        for name, value in template.items():
            if isinstance(value, int) and not isinstance(value, bool):
                row[name] = rng.randint(1, 999999)
            else:
                row[name] = f"{FILLER_PREFIX}{rng.randrange(10 ** 9):09d}"
        filler.append(row)
    return replace(table, rows=table.rows + tuple(filler))


def write_fixtures(workload: Workload, seed: int, out_dir: Path) -> int:
    """Generate 7 categories x N seeds of tasks into out_dir; returns the count."""
    from goalact import generator

    rng = random.Random(f"pad:{workload.name}:{seed}")
    count = 0
    for category in generator.CATEGORY_ORDER:
        for task_seed in task_seeds(seed, workload.seeds_per_category):
            task, env = generator.generate_task(category, task_seed)
            if workload.pad_rows:
                env = replace(env, tables=tuple(
                    pad_table(t, workload.pad_rows, rng) for t in env.tables))
            generator.save_fixture(task, env, out_dir)
            count += 1
    return count


def load_pairs(fixtures: Path) -> list:
    """What `goalact suite --fixtures` loads: every task with its tables."""
    from goalact import generator

    return [generator.load_fixture(path)
            for path in sorted((fixtures / "tasks").glob("*.json"))]


def record_cassette(pairs: list, cassette: Path, out_dir: Path, methods,
                    config) -> set[str]:
    """Answer the suite from the oracle through one shared cassette recorder.

    The artifacts written to out_dir are the oracle reference the replayed
    passes must reproduce byte for byte.  Returns the ids of the tasks the
    cassette cannot serve: a cassette is keyed by the request alone, so when
    two tasks send the same request and the oracle answers them differently,
    only the first answer is kept and the other task's replay goes astray.
    """
    from goalact import backends, oracle, suite

    entries: dict[str, str] = {}
    # request hash -> oracle response -> ids of the tasks that got it
    answers: dict[str, dict[str, set[str]]] = defaultdict(
        lambda: defaultdict(set))

    class Witness:
        """The task's oracle, noting which task got which answer."""

        def __init__(self, task):
            self.task_id = task.id
            self.inner = oracle.oracle_backend(task)

        def complete(self, request):
            response = self.inner.complete(request)
            answers[backends.request_hash(request)][response].add(self.task_id)
            return response

    def factory(task):
        recorder = backends.CassetteRecorder(Witness(task), cassette)
        recorder.entries = entries
        return recorder

    suite.run_suite(pairs, methods, config, factory, out_dir=out_dir,
                    backend_spec="scripted:oracle")
    return {task_id for by_response in answers.values() if len(by_response) > 1
            for task_ids in by_response.values() for task_id in task_ids}


def drop_tasks(fixtures: Path, task_ids: set[str]) -> None:
    """Delete the fixture files of the given tasks."""
    for task_id in task_ids:
        (fixtures / "tasks" / f"{task_id}.json").unlink()
        for table in (fixtures / "tables").glob(f"{task_id}__*.json"):
            table.unlink()


def prepare(workload: Workload, seed: int, work: Path) -> dict:
    """Write every input of one run under work/; returns the paths it made."""
    from goalact.orchestrator import METHODS, RunConfig

    if work.exists():
        shutil.rmtree(work)
    fixtures = work / "fixtures"
    task_count = write_fixtures(workload, seed, fixtures)
    made = {"fixtures": fixtures, "task_count": task_count}
    if workload.replay:
        cassette, recorded = work / "cassette.jsonl", work / "recorded"
        left_out: set[str] = set()
        while clashing := record_cassette(load_pairs(fixtures), cassette,
                                          recorded, list(METHODS), RunConfig()):
            # Their replays would miss the cassette on every pass: leave
            # these tasks out of the workload and record it again.
            drop_tasks(fixtures, clashing)
            left_out |= clashing
            cassette.unlink()
            shutil.rmtree(recorded)
        made.update(cassette=cassette, recorded=recorded,
                    task_count=task_count - len(left_out),
                    left_out=sorted(left_out))
    return made


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import_goalact()
    made = prepare(WORKLOADS[args.workload], args.seed, args.out)
    for key, value in made.items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
