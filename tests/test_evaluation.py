from __future__ import annotations

import random
import unicodedata

import pytest

from goalact.errors import GoalActError
from goalact.evaluation import (
    TaskScore,
    aggregate,
    compare_methods,
    path_coverage,
    render_report_json,
    render_report_text,
    success_rate,
)


def test_all_keywords_present_scores_one():
    score = success_rate({"AlphaCorp", "2019-04"},
                         "AlphaCorp was founded in 2019-04.")
    assert score.s == 1.0
    assert score.missing == frozenset()


def test_half_the_keywords_scores_half():
    score = success_rate({"AlphaCorp", "2019-04"}, "AlphaCorp only.")
    assert score.s == 0.5
    assert score.matched == frozenset({"AlphaCorp"})
    assert score.missing == frozenset({"2019-04"})


def test_empty_output_scores_zero():
    assert success_rate({"x"}, "").s == 0.0


def test_empty_keyword_set_is_an_error():
    with pytest.raises(GoalActError, match="at least one keyword"):
        success_rate(set(), "anything")


def test_matching_is_exact_no_case_folding():
    assert success_rate({"AlphaCorp"}, "alphacorp").s == 0.0


def test_matching_normalizes_to_nfc():
    composed = "café"
    decomposed = unicodedata.normalize("NFD", composed)
    assert success_rate({composed}, f"at the {decomposed} corner").s == 1.0


def test_randomized_scores_match_a_brute_force_oracle():
    rng = random.Random(1234)
    alphabet = "abcdef "
    for _ in range(1000):
        keywords = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))).strip() or "k"
                    for _ in range(rng.randint(1, 5))}
        output = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        score = success_rate(keywords, output)
        expected_matched = {k for k in keywords
                            if unicodedata.normalize("NFC", k)
                            in unicodedata.normalize("NFC", output)}
        assert score.matched == expected_matched
        assert score.s == len(expected_matched) / len(keywords)
        assert 0.0 <= score.s <= 1.0


def test_appending_text_never_decreases_the_score():
    rng = random.Random(77)
    keywords = {"needle", "thread", "button"}
    output = "some needle here"
    score = success_rate(keywords, output).s
    for _ in range(200):
        output += "".join(rng.choice("abct hredbuton") for _ in range(8))
        new_score = success_rate(keywords, output).s
        assert new_score >= score
        score = new_score


def test_path_coverage_is_a_separate_diagnostic():
    assert path_coverage({"AC-1234"}, "saw AC-1234 in passing") == 1.0
    assert path_coverage({"AC-1234", "SH-5678"}, "only AC-1234") == 0.5
    assert path_coverage(set(), "anything") == 1.0


def _score(task_id: str, s: float) -> TaskScore:
    return TaskScore(task_id=task_id, s=s, matched=frozenset(),
                     missing=frozenset())


def test_aggregate_means_per_category():
    report = aggregate({"GoalAct": [_score("a", 1.0), _score("b", 0.5)]},
                       {"a": "1hop", "b": "1hop"})
    assert report.rows[0].per_category["1hop"] == 0.75
    assert report.rows[0].overall == 0.75


def test_aggregate_overall_is_unweighted_over_tasks():
    report = aggregate({"method": [_score("a", 1.0), _score("b", 0.0)]},
                       {"a": "1hop", "b": "writing"})
    assert report.rows[0].overall == 0.5
    assert report.categories == ("1hop", "writing")


def test_aggregate_rejects_empty_and_uncategorized():
    with pytest.raises(GoalActError, match="empty score list"):
        aggregate({}, {})
    with pytest.raises(GoalActError, match="empty score list"):
        aggregate({"m": [_score("a", 1.0)], "n": []}, {"a": "1hop"})
    with pytest.raises(GoalActError, match="task 'a' has no category"):
        aggregate({"m": [_score("a", 1.0)]}, {"b": "1hop"})


def test_aggregate_builds_one_row_per_method_in_order():
    categories = {"a": "writing", "b": "1hop", "c": "1hop"}
    report = aggregate({
        "ReAct": [_score("c", 0.0), _score("a", 0.5), _score("b", 1.0)],
        "GoalAct": [_score("a", 1.0), _score("b", 1.0), _score("c", 0.5)],
    }, categories)
    assert [row.method for row in report.rows] == ["ReAct", "GoalAct"]
    assert report.categories == ("1hop", "writing")
    assert report.task_count == 3
    assert report.rows[0].per_category == {"1hop": 0.5, "writing": 0.5}
    assert report.rows[0].overall == 0.5
    assert report.rows[1].per_category == {"1hop": 0.75, "writing": 1.0}
    assert report.rows[1].overall == pytest.approx(2.5 / 3)


def test_aggregate_rejects_methods_scored_over_different_task_sets():
    categories = {"a": "1hop", "b": "1hop"}
    with pytest.raises(GoalActError, match="different task sets"):
        aggregate({"A": [_score("a", 1.0)], "B": [_score("b", 1.0)]},
                  categories)
    with pytest.raises(GoalActError, match="different task sets"):
        aggregate({"A": [_score("a", 1.0)],
                   "B": [_score("a", 1.0), _score("b", 1.0)]}, categories)


def test_aggregate_is_permutation_invariant():
    rng = random.Random(5)
    scores = [_score(f"t{i}", rng.random()) for i in range(30)]
    categories = {f"t{i}": rng.choice(["1hop", "2hop", "writing"])
                  for i in range(30)}
    baseline = aggregate({"m": scores}, categories)
    for _ in range(10):
        shuffled = scores[:]
        rng.shuffle(shuffled)
        again = aggregate({"m": shuffled}, categories)
        assert again.rows[0].per_category == baseline.rows[0].per_category
        assert again.rows[0].overall == baseline.rows[0].overall


def test_compare_methods_deltas_against_the_best_rival():
    categories = {"a": "1hop", "b": "writing"}
    report = aggregate({
        "GoalAct": [_score("a", 1.0), _score("b", 0.8)],
        "ReAct": [_score("a", 0.9), _score("b", 0.2)],
        "CodeAct": [_score("a", 0.8), _score("b", 0.1)],
    }, categories)
    deltas = compare_methods(report)
    assert deltas["GoalAct"]["ALL"] == pytest.approx(0.9 - 0.55)
    assert deltas["GoalAct"]["1hop"] == pytest.approx(0.1)
    assert deltas["ReAct"]["1hop"] == pytest.approx(-0.1)


def test_compare_methods_accepts_a_merged_report():
    categories = {"a": "1hop"}
    merged = aggregate({"GoalAct": [_score("a", 1.0)],
                        "ReAct": [_score("a", 0.4)]}, categories)
    deltas = compare_methods(merged)
    assert deltas["GoalAct"]["ALL"] == pytest.approx(0.6)
    with pytest.raises(GoalActError, match="at least two methods"):
        compare_methods(aggregate({"X": [_score("a", 1.0)]}, categories))


def test_report_rendering_lists_methods_and_all_column():
    categories = {"a": "1hop", "b": "writing"}
    merged = aggregate({
        "GoalAct": [_score("a", 1.0), _score("b", 0.5)],
        "ReAct": [_score("a", 0.5), _score("b", 0.5)],
    }, categories)
    text = render_report_text(merged)
    lines = text.splitlines()
    assert lines[0].split() == ["Method", "1hop", "writing", "ALL"]
    assert any(line.startswith("GoalAct") and "0.7500" in line
               for line in lines)
    assert any(line.startswith("ReAct") for line in lines)
    assert "tasks per method: 2" in text
    assert '"overall": 0.75' in render_report_json(merged)
