"""ExplainReport: the paper's hardness diagnostics assembled per query."""

import json

import pytest

from repro.db import ProbabilisticDatabase
from repro.obs import build_explain_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.query.parser import parse_query


@pytest.fixture
def db():
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5, (2,): 0.7})
    db.add_relation(
        "S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5, (2, 1): 0.9}
    )
    return db


def test_report_matches_direct_evaluation(db):
    query = parse_query("q(x) :- R(x), S(x,y)")
    report, answers = build_explain_report(db, query)
    assert report.answers == len(answers) == 2
    # R(1)·(1-(1-0.5)(1-0.5)) and R(2)·0.9 — the textbook safe-plan values
    assert answers[(1,)] == pytest.approx(0.375)
    assert answers[(2,)] == pytest.approx(0.63)


def test_report_fields_reflect_the_run(db):
    query = parse_query("q(x) :- R(x), S(x,y)")
    report, _ = build_explain_report(db, query, engine="rows")
    assert report.engine == "rows"
    assert report.query == str(query)
    assert "R" in report.plan and "S" in report.plan
    assert report.offending_total >= 1
    assert not report.data_safe
    assert sum(report.offending_by_source.values()) == report.offending_total
    assert report.component_count == sum(report.component_sizes.values())
    assert len(report.slices) == len([
        s for s in report.slices if s["engine"] in ("tree", "ve", "dpll")
    ])
    assert report.operators
    for op in report.operators:
        assert set(op) == {"operator", "output_size", "conditioned", "seconds"}
    assert report.eval_seconds >= 0 and report.inference_seconds >= 0
    # metrics snapshot embedded and coherent with the top-level fields
    assert report.metrics["counters"]["offending"] == report.offending_total
    assert report.metrics["gauges"]["network.nodes"] == report.network_nodes


def test_data_safe_query_has_no_offending(db):
    report, answers = build_explain_report(db, parse_query("q(x) :- R(x)"))
    assert report.data_safe
    assert report.offending_total == 0
    assert report.offending_by_source == {}
    assert answers[(1,)] == pytest.approx(0.5)


def test_as_dict_is_json_serialisable(db):
    report, _ = build_explain_report(db, parse_query("q(x) :- R(x), S(x,y)"))
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["query"] == report.query
    assert payload["component_sizes"]  # str-keyed histogram survived
    assert payload["metrics"]["counters"]


def test_format_renders_all_sections(db):
    report, _ = build_explain_report(db, parse_query("q(x) :- R(x), S(x,y)"))
    text = report.format()
    for fragment in (
        "query:", "offending tuples per relation", "per-operator timings",
        "network components", "per-component inference", "subformula cache",
        "base encode: 0 scans reused an encoding / 2 re-encoded",
    ):
        assert fragment in text, fragment


def test_report_counts_base_encodes(db):
    query = parse_query("q(x) :- R(x), S(x,y)")
    report, _ = build_explain_report(db, query)
    assert (report.cache["encode_hits"], report.cache["encode_misses"]) == (0, 2)
    rows, _ = build_explain_report(db, query, engine="rows")
    assert "encode_misses" not in rows.cache
    assert "base encode" not in rows.format()


def test_registry_and_tracing_are_shared(db):
    registry = MetricsRegistry()
    with Tracer() as tracer:
        build_explain_report(
            db, parse_query("q(x) :- R(x), S(x,y)"), registry=registry
        )
    assert registry.counter("offending") >= 1
    assert [r.name for r in tracer.roots] == ["explain"]
    assert tracer.roots[0].find("explain_slice")


def test_explicit_join_order_is_recorded(db):
    report, _ = build_explain_report(
        db, parse_query("q(x) :- R(x), S(x,y)"), join_order=["S", "R"]
    )
    assert report.join_order == ["S", "R"]


def shared_t_database() -> ProbabilisticDatabase:
    """``q(x) :- R(x), S(x,y), T(y)`` with S the full 3x2 bipartite
    relation: every answer shares the T tuples, so the network is one
    narrow component with three targets (the ``junction`` route)."""
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(x,): 0.3 + 0.1 * x for x in range(3)})
    db.add_relation(
        "S", ("A", "B"),
        {(x, y): 0.5 + 0.1 * y for x in range(3) for y in range(2)},
    )
    db.add_relation("T", ("B",), {(y,): 0.6 + 0.1 * y for y in range(2)})
    return db


def test_slice_engine_is_the_route_solve_slice_took(monkeypatch):
    """Explain reads the route from the driver instead of re-deriving it:
    one narrow three-target component runs ``junction``, which a
    width-only re-derivation misreports as ``ve``."""
    import repro.obs.report as report_module
    import repro.perf.parallel as parallel
    db = shared_t_database()
    checks = []

    def counting(original):
        def wrapper(net, *args, **kwargs):
            checks.append(len(net))
            return original(net, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        parallel, "is_tree_factorable", counting(parallel.is_tree_factorable)
    )
    if hasattr(report_module, "is_tree_factorable"):
        monkeypatch.setattr(
            report_module, "is_tree_factorable",
            counting(report_module.is_tree_factorable),
        )
    with Tracer() as tracer:
        report, _ = build_explain_report(
            db, parse_query("q(x) :- R(x), S(x,y), T(y)")
        )
    slices = [
        s for s in tracer.roots[0].walk() if s.name == "explain_slice"
    ]
    assert len(slices) == len(report.slices) == 1
    for span_, record in zip(slices, report.slices):
        (solve,) = [s for s in span_.walk() if s.name == "solve_slice"]
        assert record["engine"] == solve.attrs["path"] == "junction"
        assert span_.attrs["engine"] == "junction"
    # one tree-factorability test per slice: the solve's own
    assert len(checks) == len(report.slices)
