"""Seeded task generator over synthetic relational tables.

Produces the benchmark's task families over a fictional business world:

  * k-hop lookup tasks (k = 1..5): an entity chain across k tables, where the
    query names the first entity and asks for an attribute of the last.
  * writing tasks: a complaint-style brief whose answer must weave together
    facts about two parties, their counsel, and two statutes.
  * aggregation tasks: a numeric total over ~20 filtered rows, sized so that
    row-by-row lookups cannot fit inside the iteration budget.

Every value that enters a keyword set is minted to be globally unique within
the task and never a substring of another minted value, so substring scoring
is unambiguous.  The same (seed, family) always yields the same task.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from .environment import (Table, ToolEnvironment, load_table, render_number,
                          save_table)
from .records import read_document, record_from_dict, record_to_dict

DISTRACTOR_CHAINS = 3
AGGREGATION_ROWS = 20

CATEGORY_ORDER = ("1hop", "2hop", "3hop", "4hop", "5hop", "writing", "aggregation")

_ADJECTIVES = ["Aquiline", "Borealis", "Cindral", "Dovetail", "Emberline",
               "Fenwick", "Gyrfalcon", "Harbinger", "Ironwood", "Juniper"]
_NOUNS = ["Dynamics", "Holdings", "Logistics", "Ventures", "Industries",
          "Partners", "Systems", "Robotics", "Analytics", "Foundry"]
_PLACES = ["Veldmora", "Quintarra", "Ostrevant", "Milbrook", "Harrowgate",
           "Selvane", "Torwick", "Lunaris", "Pellmont", "Grisholm"]
_BANKS = ["Meridian", "Cobalt", "Halcyon", "Northgate", "Vantage",
          "Corundum", "Palisade", "Keystone", "Argentum", "Bellwether"]
_CONTRACT_WORDS = ["Procurement", "Leasing", "Franchise", "Brokerage",
                   "Consignment", "Outfitting", "Chartering", "Licensing"]
_FIRST_NAMES = ["Maren", "Teodor", "Ilsa", "Colm", "Petra",
                "Anders", "Sigrid", "Rohan", "Leonie", "Casimir"]
_LAST_NAMES = ["Vosskamp", "Eldergren", "Tanayev", "Morrowitz", "Quillfeather",
               "Harlan", "Brandvold", "Ossinger", "Fairweather", "Dunmore"]
_STATUTE_TOPICS = ["late delivery", "defective goods", "payment default",
                   "confidentiality breach"]


@dataclass(frozen=True)
class Task:
    """One benchmark task plus the construction metadata the harness needs.

    gold_path lists the (table, key) lookups a correct solution traverses;
    recipe captures how the task was built (used by the scripted oracle and
    the generator soundness checks, not by any agent).  A task without key
    answers could never be scored: ValueError.
    """

    id: str
    category: str
    query: str
    key_answers: tuple[str, ...]
    key_middles: tuple[str, ...]
    gold_path: tuple[tuple[str, str], ...]
    recipe: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key_answers:
            raise ValueError("key_answers must not be empty")


class ValueMint:
    """Mints task-unique strings that are never substrings of one another."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: list[str] = []

    def _fresh(self, make: Callable[[], str]) -> str:
        for _ in range(1000):
            value = make()
            if value not in self.used and not any(
                value in other or other in value for other in self.used
            ):
                self.used.append(value)
                return value
        raise RuntimeError("value mint exhausted")

    def digits(self, width: int) -> str:
        first = self.rng.choice("123456789")
        rest = "".join(self.rng.choice("0123456789") for _ in range(width - 1))
        return first + rest

    def code(self, prefix: str, width: int = 6) -> str:
        return self._fresh(lambda: f"{prefix}-{self.digits(width)}")

    def company(self) -> str:
        return self._fresh(lambda: "%s %s %s" % (
            self.rng.choice(_ADJECTIVES), self.rng.choice(_NOUNS), self.digits(3)))

    def place(self) -> str:
        return self._fresh(lambda: f"{self.rng.choice(_PLACES)} {self.digits(4)}")

    def bank(self) -> str:
        return self._fresh(lambda: f"{self.rng.choice(_BANKS)} Trust {self.digits(3)}")

    def contract_title(self) -> str:
        return self._fresh(lambda: "%s Charter %s" % (
            self.rng.choice(_CONTRACT_WORDS), self.digits(4)))

    def person(self) -> str:
        return self._fresh(lambda: "%s %s" % (
            self.rng.choice(_FIRST_NAMES), self.rng.choice(_LAST_NAMES)))

    def date(self) -> str:
        y = self.rng.randint(2010, 2023)
        m = self.rng.randint(1, 12)
        d = self.rng.randint(1, 28)
        return f"{y:04d}-{m:02d}-{d:02d}"


# Chain-table templates: key field, the field a query may ask about, and
# filler fields so rows look like real records.
_HOP_TABLES: list[dict[str, Any]] = [
    {"name": "companies", "key": "name", "key_mint": "company",
     "answer_field": "city", "answer_mint": "place",
     "fillers": {"sector": ["logistics", "energy", "retail", "maritime"],
                 "founded": "date"}},
    {"name": "contracts", "key": "contract_id", "key_mint": ("code", "CT"),
     "answer_field": "title", "answer_mint": "contract_title",
     "fillers": {"signed_on": "date", "value": (5000, 90000)}},
    {"name": "accounts", "key": "account_id", "key_mint": ("code", "AC"),
     "answer_field": "bank", "answer_mint": "bank",
     "fillers": {"opened_on": "date", "balance": (1000, 500000)}},
    {"name": "shipments", "key": "shipment_id", "key_mint": ("code", "SH"),
     "answer_field": "destination", "answer_mint": "place",
     "fillers": {"dispatched_on": "date", "weight_kg": (10, 2000)}},
    {"name": "invoices", "key": "invoice_id", "key_mint": ("code", "IN"),
     "answer_field": "reference", "answer_mint": ("code", "REF"),
     "fillers": {"issued_on": "date", "status": ["open", "settled", "disputed"]}},
]


def _mint_value(mint: ValueMint, how: Any) -> str:
    if isinstance(how, tuple):
        method, arg = how
        return getattr(mint, method)(arg)
    return getattr(mint, how)()


def _filler_value(mint: ValueMint, rule: Any) -> Any:
    if isinstance(rule, list):
        return mint.rng.choice(rule)
    if isinstance(rule, tuple):
        return mint.rng.randint(*rule)
    return mint.date()


def _chain_rows(mint: ValueMint, templates: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One linked row per chain table; returns the per-table row dicts."""
    keys = [_mint_value(mint, t["key_mint"]) for t in templates]
    rows = []
    for i, template in enumerate(templates):
        row: dict[str, Any] = {template["key"]: keys[i]}
        row[template["answer_field"]] = _mint_value(mint, template["answer_mint"])
        if i + 1 < len(templates):
            row[templates[i + 1]["key"]] = keys[i + 1]
        for fname, rule in template["fillers"].items():
            row[fname] = _filler_value(mint, rule)
        rows.append(row)
    return rows


def generate_khop_task(seed: int, k: int) -> tuple[Task, ToolEnvironment]:
    """A k-table lookup chain with distractor chains for wrong turns."""
    if not 1 <= k <= 5:
        raise ValueError(f"k must be in 1..5, got {k}")
    rng = random.Random(f"khop:{k}:{seed}")
    mint = ValueMint(rng)
    start = rng.randrange(len(_HOP_TABLES))
    templates = [_HOP_TABLES[(start + i) % len(_HOP_TABLES)] for i in range(k)]

    gold = _chain_rows(mint, templates)
    chains = [gold] + [_chain_rows(mint, templates) for _ in range(DISTRACTOR_CHAINS)]

    tables = []
    for i, template in enumerate(templates):
        rows = [chain[i] for chain in chains]
        rng.shuffle(rows)
        tables.append(Table(name=template["name"], key_field=template["key"],
                            rows=tuple(rows)))
    env = ToolEnvironment(tables=tuple(tables))

    keys = [gold[i][templates[i]["key"]] for i in range(k)]
    answer_field = templates[-1]["answer_field"]
    answer = gold[-1][answer_field]

    lines = [
        'Start from the "%s" record whose %s is "%s".'
        % (templates[0]["name"], templates[0]["key"], keys[0])
    ]
    for i in range(1, k):
        lines.append(
            'Follow its %s field to the matching record in "%s".'
            % (templates[i]["key"], templates[i]["name"])
        )
    lines.append(f"What is the {answer_field} of the final record?")

    hops = []
    for i, template in enumerate(templates):
        hops.append({
            "table": template["name"],
            "lookup_field": template["key"],
            "lookup_value": keys[i],
            "link_field": templates[i + 1]["key"] if i + 1 < k else None,
        })
    task = Task(
        id=f"khop{k}-s{seed:05d}",
        category=f"{k}hop",
        query=" ".join(lines),
        key_answers=(answer,),
        key_middles=tuple(keys[1:]),
        gold_path=tuple((templates[i]["name"], keys[i]) for i in range(k)),
        recipe={"kind": "khop", "hops": hops,
                "answer_field": answer_field, "answer": answer},
    )
    return task, env


def generate_writing_task(seed: int) -> tuple[Task, ToolEnvironment]:
    """A complaint brief whose defense must cite party, counsel, and statute facts."""
    rng = random.Random(f"writing:{seed}")
    mint = ValueMint(rng)

    plaintiff_name = mint.company()
    defendant_name = mint.company()
    plaintiff_id = mint.code("P", 6)
    defendant_id = mint.code("P", 6)
    registration = mint.code("REG", 6)
    counsel_id = mint.code("L", 6)
    counsel_name = mint.person()
    bar_number = mint.code("BAR", 6)
    contract_ref = mint.code("CT", 6)
    topic = rng.choice(_STATUTE_TOPICS)
    statute_ids = [mint.code("SEC", 5) for _ in range(2)]

    def party_row(pid: str, role: str, name: str, reg: str,
                  counsel: str) -> dict[str, Any]:
        return {"party_id": pid, "role": role, "legal_name": name,
                "registration_code": reg, "city": mint.place(),
                "counsel_id": counsel}

    parties = [
        party_row(plaintiff_id, "plaintiff", plaintiff_name, mint.code("REG", 6),
                  mint.code("L", 6)),
        party_row(defendant_id, "defendant", defendant_name, registration,
                  counsel_id),
    ]
    lawyers = [
        {"lawyer_id": counsel_id, "full_name": counsel_name,
         "bar_number": bar_number, "firm": mint.company()},
        {"lawyer_id": parties[0]["counsel_id"], "full_name": mint.person(),
         "bar_number": mint.code("BAR", 6), "firm": mint.company()},
    ]
    statutes = [
        {"statute_id": sid, "topic": topic,
         "title": f"Remedies clause {mint.digits(4)}"}
        for sid in statute_ids
    ]
    for other_topic in _STATUTE_TOPICS:
        if other_topic != topic:
            statutes.append({"statute_id": mint.code("SEC", 5),
                             "topic": other_topic,
                             "title": f"Remedies clause {mint.digits(4)}"})
    rng.shuffle(parties)
    rng.shuffle(statutes)

    env = ToolEnvironment(tables=(
        Table(name="parties", key_field="party_id", rows=tuple(parties)),
        Table(name="lawyers", key_field="lawyer_id", rows=tuple(lawyers)),
        Table(name="statutes", key_field="statute_id", rows=tuple(statutes)),
    ))

    query = (
        f'COMPLAINT. The plaintiff "{plaintiff_name}" alleges that the defendant '
        f'"{defendant_name}" failed to perform its obligations under contract '
        f"{contract_ref}, causing material losses through {topic}. The plaintiff "
        "demands compensation in full plus costs. "
        'TASK: Prepare a defense brief for the defendant. Query the "parties" '
        "table for both parties' registered details, look up the defendant's "
        'counsel in the "lawyers" table, and filter the "statutes" table for the '
        f'topic "{topic}". The brief must name both parties, cite the '
        "defendant's registration code, identify defending counsel by name and "
        "bar number, and invoke every statute found for the topic."
    )

    task = Task(
        id=f"writing-s{seed:05d}",
        category="writing",
        query=query,
        key_answers=(plaintiff_name, defendant_name, registration,
                     counsel_name, bar_number, *statute_ids),
        key_middles=(defendant_id, counsel_id),
        gold_path=(("parties", plaintiff_id), ("parties", defendant_id),
                   ("lawyers", counsel_id),
                   *(("statutes", sid) for sid in statute_ids)),
        recipe={
            "kind": "writing",
            "plaintiff_name": plaintiff_name,
            "defendant_name": defendant_name,
            "registration_code": registration,
            "counsel_id": counsel_id,
            "counsel_name": counsel_name,
            "bar_number": bar_number,
            "topic": topic,
            "statute_ids": statute_ids,
            "doc_marker": f"DEFENSE BRIEF {contract_ref}",
        },
    )
    return task, env


def generate_aggregation_task(seed: int) -> tuple[Task, ToolEnvironment]:
    """A total over AGGREGATION_ROWS filtered rows; needs computation, not lookups."""
    rng = random.Random(f"aggregation:{seed}:0")
    mint = ValueMint(rng)
    company_id = mint.code("C", 6)
    company_name = mint.company()

    def ledger_row(owner: str) -> dict[str, Any]:
        return {"invoice_id": mint.code("IN", 6), "company_id": owner,
                "amount": rng.randint(1000, 99999), "issued_on": mint.date()}

    gold_rows = [ledger_row(company_id) for _ in range(AGGREGATION_ROWS)]
    distractor_rows = [ledger_row(mint.code("C", 6)) for _ in range(12)]

    total = sum(row["amount"] for row in gold_rows)
    # The rendered total must not occur inside any minted identifier.
    while any(str(total) in value for value in mint.used):
        gold_rows[0]["amount"] += 1
        total += 1

    rows = gold_rows + distractor_rows
    rng.shuffle(rows)
    env = ToolEnvironment(tables=(
        Table(name="invoices", key_field="invoice_id", rows=tuple(rows)),
    ))

    rendered_total = render_number(total)
    query = (
        f'The company "{company_name}" has company_id {company_id}. '
        f'Across the "invoices" table, compute the total of the amount field '
        f"over every invoice whose company_id is {company_id}. "
        "Report the total as a plain number."
    )
    task = Task(
        id=f"agg-s{seed:05d}",
        category="aggregation",
        query=query,
        key_answers=(rendered_total,),
        key_middles=(),
        gold_path=tuple(("invoices", row["invoice_id"]) for row in gold_rows),
        recipe={"kind": "aggregation", "table": "invoices",
                "filter_field": "company_id", "filter_value": company_id,
                "sum_field": "amount", "total": total,
                "rendered_total": rendered_total},
    )
    return task, env


def generate_task(category: str, seed: int) -> tuple[Task, ToolEnvironment]:
    """Dispatch by category name: '1hop'..'5hop', 'writing', 'aggregation'."""
    if category.endswith("hop") and category[:-3].removeprefix("-").isdigit():
        return generate_khop_task(seed, int(category[:-3]))
    if category == "writing":
        return generate_writing_task(seed)
    if category == "aggregation":
        return generate_aggregation_task(seed)
    raise ValueError(f"unknown task category '{category}'")


# --- fixture persistence --------------------------------------------------------

@dataclass(frozen=True)
class _TaskFile:
    """A task file's document: the task's keys, then `table_files`."""

    task: Task
    table_files: tuple[str, ...]


def save_fixture(task: Task, env: ToolEnvironment, out_dir: Path) -> Path:
    """Write tasks/<id>.json plus one tables/<id>__<table>.json per table."""
    tasks_dir = out_dir / "tasks"
    tables_dir = out_dir / "tables"
    tasks_dir.mkdir(parents=True, exist_ok=True)
    tables_dir.mkdir(parents=True, exist_ok=True)
    table_files = tuple(f"{task.id}__{table.name}.json" for table in env.tables)
    for table, name in zip(env.tables, table_files):
        save_table(table, tables_dir / name)
    doc = record_to_dict(_TaskFile(task, table_files))
    task_path = tasks_dir / f"{task.id}.json"
    task_path.write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n",
                         encoding="utf-8")
    return task_path


def load_fixture(task_path: Path) -> tuple[Task, ToolEnvironment]:
    """A task and its tables as `save_fixture` wrote them; a task or table
    document that is malformed raises FatalError naming its file."""
    fixture = read_document(task_path, lambda doc: record_from_dict(
        _TaskFile, {"recipe": {}, "table_files": [], **doc}))
    # os.path, not pathlib: making Paths took a sixth of the load's time
    tables_dir = os.path.join(os.path.dirname(os.path.dirname(task_path)),
                              "tables")
    return fixture.task, ToolEnvironment(tables=tuple(
        load_table(os.path.join(tables_dir, name))
        for name in fixture.table_files))
