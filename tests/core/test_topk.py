"""Top-k answer ranking of a partial-lineage result (``certified_top_k``)."""

import random

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.plan import left_deep_plan
from repro.db import ProbabilisticDatabase
from repro.dissociation import DissociationEvaluator, certified_top_k
from repro.query.parser import parse_query

QUERY = parse_query("q(h) :- R(h,x), S(h,x,y), T(h,y)")


def build_database(seed: int = 0, heads: int = 8) -> ProbabilisticDatabase:
    rng = random.Random(seed)
    db = ProbabilisticDatabase()
    db.add_relation(
        "R", ("H", "A"),
        {(h, a): rng.uniform(0.2, 0.95) for h in range(heads) for a in range(2)},
    )
    db.add_relation(
        "S", ("H", "A", "B"),
        {
            (h, a, b): rng.uniform(0.2, 0.95)
            for h in range(heads)
            for a in range(2)
            for b in range(2)
            if rng.random() < 0.8
        },
    )
    db.add_relation(
        "T", ("H", "B"),
        {(h, b): rng.uniform(0.2, 0.95) for h in range(heads) for b in range(2)},
    )
    return db


def top_k(db: ProbabilisticDatabase, k: int):
    plan = left_deep_plan(QUERY, ["R", "S", "T"])
    result = PartialLineageEvaluator(db).evaluate(plan)
    bounds = DissociationEvaluator(db).evaluate(plan)
    return result.answer_probabilities(), certified_top_k(result, bounds, k)


def test_topk_matches_exact_ranking():
    exact, report = top_k(build_database(seed=1), 3)
    assert len(report.answers) == 3
    expected = sorted(exact.items(), key=lambda kv: -kv[1])[:3]
    assert [a.row for a in report.answers] == [row for row, _ in expected]
    for answer in report.answers:
        assert answer.probability == pytest.approx(exact[answer.row])
        assert answer.lower - 1e-9 <= exact[answer.row] <= answer.upper + 1e-9


def test_topk_k_larger_than_answers():
    exact, report = top_k(build_database(seed=3, heads=2), 10)
    assert len(exact) == 2
    assert len(report.answers) == 2
    assert {a.row for a in report.answers} == set(exact)
