"""Keyword-based success scoring and per-category aggregation.

A task's score is the fraction of its gold keywords that occur as exact
substrings of the final output, after NFC normalization of both sides; no
case folding, no fuzzy credit.  `aggregate` builds a suite's whole report
at once, one row per method of unweighted means per category plus an
overall ALL column, and checks there that every method was scored over the
same tasks.
"""

from __future__ import annotations

import json
import math
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import GoalActError
from .generator import CATEGORY_ORDER
from .records import record_to_dict


@dataclass(frozen=True)
class TaskScore:
    task_id: str
    s: float
    matched: frozenset[str]
    missing: frozenset[str]


@dataclass(frozen=True)
class MethodRow:
    method: str
    per_category: dict[str, float]
    overall: float


@dataclass(frozen=True)
class SuiteReport:
    categories: tuple[str, ...]
    task_count: int
    rows: tuple[MethodRow, ...]


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def success_rate(key_answers: Iterable[str], output: str,
                 task_id: str = "") -> TaskScore:
    """Fraction of keywords appearing as exact substrings of the output."""
    keywords = set(key_answers)
    if not keywords:
        raise GoalActError("success_rate needs at least one keyword")
    normalized = _nfc(output)
    matched = frozenset(k for k in keywords if _nfc(k) in normalized)
    missing = frozenset(keywords - matched)
    return TaskScore(task_id=task_id, s=len(matched) / len(keywords),
                     matched=matched, missing=missing)


def path_coverage(key_middles: Iterable[str], trajectory_text: str) -> float:
    """Diagnostic only: fraction of intermediate link values that were seen.

    Intermediate coverage never enters the success score.
    """
    middles = set(key_middles)
    if not middles:
        return 1.0
    normalized = _nfc(trajectory_text)
    return sum(1 for m in middles if _nfc(m) in normalized) / len(middles)


def _ordered_categories(categories: Iterable[str]) -> tuple[str, ...]:
    present = set(categories)
    ordered = [c for c in CATEGORY_ORDER if c in present]
    ordered += sorted(present - set(CATEGORY_ORDER))
    return tuple(ordered)


def aggregate(scores_by_method: Mapping[str, Sequence[TaskScore]],
              categories: Mapping[str, str]) -> SuiteReport:
    """One row per method, in mapping order: unweighted per-category means
    plus the overall ALL mean.  Every method must be scored over the same
    tasks, and every task must have a category."""
    if not scores_by_method or not all(scores_by_method.values()):
        raise GoalActError("cannot aggregate an empty score list")
    if len({frozenset(s.task_id for s in scores)
            for scores in scores_by_method.values()}) > 1:
        raise GoalActError("the methods were scored over different task sets")
    first = next(iter(scores_by_method.values()))
    for score in first:
        if score.task_id not in categories:
            raise GoalActError(f"task {score.task_id!r} has no category")
    ordered = _ordered_categories(categories[s.task_id] for s in first)
    rows = []
    for method, scores in scores_by_method.items():
        buckets: dict[str, list[float]] = {c: [] for c in ordered}
        for score in scores:
            buckets[categories[score.task_id]].append(score.s)
        # fsum is exactly rounded, so the means do not depend on score order.
        rows.append(MethodRow(
            method=method,
            per_category={c: math.fsum(v) / len(v) for c, v in buckets.items()},
            overall=math.fsum(s.s for s in scores) / len(scores)))
    return SuiteReport(rows=tuple(rows), categories=ordered,
                       task_count=len(first))


def compare_methods(report: SuiteReport) -> dict[str, dict[str, float]]:
    """Per-category and overall deltas of each method against the best rival."""
    if len(report.rows) < 2:
        raise GoalActError("compare_methods needs at least two methods")
    deltas: dict[str, dict[str, float]] = {}
    for row in report.rows:
        rivals = [r for r in report.rows if r.method != row.method]
        entry: dict[str, float] = {}
        for category in report.categories:
            mine = row.per_category.get(category)
            others = [r.per_category[category] for r in rivals
                      if category in r.per_category]
            if mine is not None and others:
                entry[category] = mine - max(others)
        entry["ALL"] = row.overall - max(r.overall for r in rivals)
        deltas[row.method] = entry
    return deltas


# --- report rendering ----------------------------------------------------------------

def render_report_text(report: SuiteReport) -> str:
    """Fixed-width table: one row per method, one column per category + ALL."""
    headers = ["Method"] + list(report.categories) + ["ALL"]
    lines = []
    body = []
    for row in report.rows:
        cells = [row.method]
        cells += [f"{row.per_category[c]:.4f}" if c in row.per_category else "-"
                  for c in report.categories]
        cells.append(f"{row.overall:.4f}")
        body.append(cells)
    widths = [max(len(headers[i]), *(len(r[i]) for r in body)) if body
              else len(headers[i]) for i in range(len(headers))]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in body:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)))
    lines.append(f"tasks per method: {report.task_count}")
    return "\n".join(lines) + "\n"


def render_report_json(report: SuiteReport) -> str:
    return json.dumps(record_to_dict(report), ensure_ascii=False, indent=2) + "\n"
