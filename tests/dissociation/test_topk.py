"""Bounds-first top-k certification: exactness of the ranking, accounting."""

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.plan import left_deep_plan
from repro.db import ProbabilisticDatabase
from repro.dissociation import DissociationEvaluator, certified_top_k
from repro.query.parser import parse_query
from repro.workload.generator import WorkloadParams, generate_database
from repro.workload.queries import TABLE1_QUERIES

Q_HEAD = parse_query("q(x) :- R(x), S(x,y), T(y)")

from tests.conftest import make_rst_database


def certify(db, query, join_order, k, **kwargs):
    plan = left_deep_plan(query, join_order)
    result = PartialLineageEvaluator(db).evaluate(plan)
    bounds = DissociationEvaluator(db).evaluate(plan)
    exact = result.answer_probabilities()
    cert = certified_top_k(result, bounds, k, **kwargs)
    return cert, sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))


class TestRankingParity:
    def test_workload_topk_identical_to_exact_all(self):
        bench = TABLE1_QUERIES["P1"]
        db = generate_database(
            WorkloadParams(N=8, m=30, fanout=3, r_f=0.2, r_d=1.0, seed=5)
        )
        for k in (1, 3, 8):
            cert, exact_ranked = certify(
                db, bench.query, list(bench.join_order), k
            )
            assert [a.row for a in cert.answers] == [
                row for row, _ in exact_ranked[:k]
            ]
            for answer, (_, p) in zip(cert.answers, exact_ranked):
                assert answer.probability == pytest.approx(p, abs=1e-9)
                assert (
                    answer.lower - 1e-9 <= p <= answer.upper + 1e-9
                )

    def test_random_instances(self, rng):
        for _ in range(15):
            db = make_rst_database(rng)
            cert, exact_ranked = certify(db, Q_HEAD, ["R", "S", "T"], 2)
            assert [a.row for a in cert.answers] == [
                row for row, _ in exact_ranked[:2]
            ]


class TestAccounting:
    def test_partition_and_threshold(self):
        bench = TABLE1_QUERIES["P1"]
        db = generate_database(
            WorkloadParams(N=10, m=25, fanout=3, r_f=0.15, r_d=1.0, seed=9)
        )
        cert, _ = certify(db, bench.query, list(bench.join_order), 3)
        assert cert.k == 3
        assert cert.refined + cert.certified_out == cert.total_answers
        assert cert.refined >= 3  # at least the winners were refined
        # Every certified-out answer's upper bound sits below the threshold.
        plan = left_deep_plan(bench.query, list(bench.join_order))
        bounds = DissociationEvaluator(db).evaluate(plan)
        below = sum(
            1
            for b in bounds.bounds.values()
            if b.upper < cert.threshold - 1e-12
        )
        assert below == cert.certified_out

    def test_k_at_least_answer_count_refines_everything(self):
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(1,): 0.4, (2,): 0.9})
        db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (2, 1): 0.6})
        db.add_relation("T", ("B",), {(1,): 0.8})
        cert, exact_ranked = certify(db, Q_HEAD, ["R", "S", "T"], 10)
        assert cert.k == len(exact_ranked)
        assert cert.certified_out == 0
        assert cert.threshold == 0.0

    def test_invalid_k_rejected(self):
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(1,): 0.4})
        plan = left_deep_plan(parse_query("q(x) :- R(x)"))
        result = PartialLineageEvaluator(db).evaluate(plan)
        bounds = DissociationEvaluator(db).evaluate(plan)
        with pytest.raises(ValueError):
            certified_top_k(result, bounds, 0)

    def test_empty_result(self):
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(1,): 0.5})
        db.add_relation("S", ("A", "B"), {(2, 1): 0.5})
        cert, exact_ranked = certify(
            db, parse_query("q(x) :- R(x), S(x,y)"), ["R", "S"], 3
        )
        assert exact_ranked == []
        assert cert.answers == []
        assert cert.total_answers == cert.refined == cert.certified_out == 0

    def test_dominant_answer_certifies_clear_losers_out(self):
        db = ProbabilisticDatabase()
        rows_r = {(0, 0): 0.95}
        rows_s = {(0, 0, 0): 0.95, (0, 0, 1): 0.95}
        for h in range(1, 10):
            rows_r[(h, 0)] = 0.05
            rows_s[(h, 0, 0)] = 0.05
            rows_s[(h, 0, 1)] = 0.05
        db.add_relation("R", ("H", "A"), rows_r)
        db.add_relation("S", ("H", "A", "B"), rows_s)
        db.add_relation(
            "T", ("H", "B"), {(h, b): 0.9 for h in range(10) for b in (0, 1)}
        )
        query = parse_query("q(h) :- R(h,x), S(h,x,y), T(h,y)")
        cert, exact_ranked = certify(db, query, ["R", "S", "T"], 1)
        assert [a.row for a in cert.answers] == [(0,)] == [
            row for row, _ in exact_ranked[:1]
        ]
        assert cert.certified_out == 9
        assert cert.refined == 1
