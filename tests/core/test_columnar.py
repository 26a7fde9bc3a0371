"""Unit tests for the columnar execution backend.

The columnar kernels must be drop-in replacements for the row operators:
same rows, same probabilities (to float round-off), and — because every
kernel preserves the row engine's node-allocation order — the *same* network,
node for node. The tests here check each piece in isolation on hand-built
relations; ``tests/property/test_columnar_engine.py`` does the same on
random databases and plans.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import columnar
from repro.core.columnar import BaseEncoding, ColumnarPLRelation, ValueInterner
from repro.core.executor import PartialLineageEvaluator
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.operators import (
    condition,
    cset,
    deduplicate,
    independent_project,
    pl_join,
    pl_join_raw,
    project,
    select_eq,
    select_where,
)
from repro.core.plrelation import PLRelation
from repro.db import ProbabilisticDatabase, ProbabilisticRelation
from repro.errors import PlanError, ProbabilityError, SchemaError
from repro.query.parser import parse_query


def assert_networks_equal(a: AndOrNetwork, b: AndOrNetwork, tol=1e-12):
    assert len(a) == len(b)
    for v in a.nodes():
        assert a.kind(v) == b.kind(v), v
        if a.kind(v) == NodeKind.LEAF:
            assert a.leaf_probability(v) == pytest.approx(
                b.leaf_probability(v), abs=tol
            )
        else:
            pa, pb = a.parents(v), b.parents(v)
            assert [p for p, _ in pa] == [p for p, _ in pb], v
            for (_, qa), (_, qb) in zip(pa, pb):
                assert qa == pytest.approx(qb, abs=tol)


def make_pair(rows, attrs=("A", "B"), name="R", leaves=0):
    """The same relation twice: row-backed and columnar, separate networks.

    *leaves* pre-seeds both networks with that many leaf nodes so rows may
    reference non-ε lineage.
    """
    net_r, net_c = AndOrNetwork(), AndOrNetwork()
    for i in range(leaves):
        net_r.add_leaf(0.5)
        net_c.add_leaf(0.5)
    row_rel = PLRelation(attrs, net_r, name=name)
    for r, l, p in rows:
        row_rel.add(r, l, p)
    interner = ValueInterner()
    col_rel = ColumnarPLRelation(
        attrs,
        net_c,
        interner,
        np.array(
            [[interner.intern(v) for v in r] for r, _, _ in rows],
            dtype=np.int64,
        ).reshape(len(rows), len(attrs)),
        np.array([l for _, l, _ in rows], dtype=np.int64),
        np.array([p for _, _, p in rows], dtype=np.float64),
        name=name,
    )
    return row_rel, col_rel


def assert_same_relation(row_rel, col_rel, tol=1e-12):
    assert col_rel.attributes == tuple(row_rel.attributes)
    assert len(col_rel) == len(row_rel)
    got = list(col_rel.items())
    want = list(row_rel.items())
    assert [r for r, _, _ in got] == [r for r, _, _ in want]
    assert [l for _, l, _ in got] == [l for _, l, _ in want]
    for (_, _, pg), (_, _, pw) in zip(got, want):
        assert pg == pytest.approx(pw, abs=tol)


ROWS = [
    ((1, 10), EPSILON, 0.5),
    ((1, 20), EPSILON, 1.0),
    ((2, 10), EPSILON, 0.25),
    ((2, 30), EPSILON, 0.75),
]


# ----------------------------------------------------------------- interner
class TestValueInterner:
    def test_intern_is_idempotent(self):
        interner = ValueInterner()
        assert interner.intern("a") == interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.code_of("a") == 0
        assert interner.code_of("missing") is None
        assert len(interner) == 2

    def test_numeric_fast_path_roundtrips(self):
        # Code *values* may differ from loop order (the fast path interns
        # sorted uniques), but same value -> same code, and decoding
        # restores the column. No kernel depends on code magnitude.
        interner = ValueInterner()
        values = [3, 1, 2, 1, 3, 3]
        encoded = interner.encode_column(values)
        assert interner.decode_column(encoded) == values
        assert encoded[1] == encoded[3]
        assert encoded[0] == encoded[4] == encoded[5]
        assert len({encoded[0], encoded[1], encoded[2]}) == 3
        # A later scalar lookup agrees with the vectorized encoding.
        assert interner.code_of(2) == encoded[2]

    def test_string_fast_path_roundtrips(self):
        # Strings vectorize like numbers (np.unique over a fixed-width
        # array); code values follow sorted-unique order, but same value ->
        # same code and decoding restores the column.
        interner = ValueInterner()
        values = ["b", "a", "b", "c", "a"]
        encoded = interner.encode_column(values)
        assert interner.decode_column(encoded) == values
        assert encoded[0] == encoded[2]
        assert encoded[1] == encoded[4]
        assert len(set(encoded.tolist())) == 3
        assert interner.code_of("c") == encoded[3]

    def test_string_fast_path_interoperates_with_scalar_intern(self):
        interner = ValueInterner()
        interner.intern("m")
        encoded = interner.encode_column(["m", "n", "m"])
        assert encoded[0] == interner.code_of("m") == 0
        assert interner.decode_column(encoded) == ["m", "n", "m"]

    def test_mixed_types_are_not_coerced(self):
        # np.asarray would coerce [1, "1"] to strings, silently merging
        # distinct values; the interner must keep them apart.
        interner = ValueInterner()
        encoded = interner.encode_column([1, "1", 1])
        assert encoded.tolist() == [0, 1, 0]

    def test_empty_column(self):
        assert ValueInterner().encode_column([]).size == 0


class TestBaseEncoding:
    def test_concurrent_encodes_agree(self):
        # Threads encode fresh, overlapping relations through one shared
        # encoding. A lost update in the interner would give a value two
        # codes (or a code the wrong value); one in the cache, a wrong count.
        encoding = BaseEncoding()
        threads, rounds = 6, 40
        failures: list[str] = []

        def work(k: int) -> None:
            for i in range(rounds):
                base = (k + i) * 5
                rows = {(v, f"s{v % 17}"): 0.5 for v in range(base, base + 30)}
                rel = ProbabilisticRelation.create("R", ("A", "B"), rows)
                for _ in range(2):  # a miss, then (usually) a hit
                    codes, _, _ = encoding.arrays(rel)
                    got = encoding.interner.decode_column(codes.reshape(-1))
                    if got != [v for row in rows for v in row]:
                        failures.append(f"thread {k} round {i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(k,)) for k in range(threads)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in workers)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        stats = encoding.as_dict()
        assert stats["hits"] + stats["misses"] == threads * rounds * 2
        assert stats["entries"] <= BaseEncoding.max_versions
        distinct = {v for k in range(threads) for i in range(rounds)
                    for v in range((k + i) * 5, (k + i) * 5 + 30)}
        assert len(encoding.interner) == len(distinct) + 17


# ---------------------------------------------------------------- bulk gates
class TestBulkNetworkAPI:
    def test_add_leaves_matches_scalar(self):
        a, b = AndOrNetwork(), AndOrNetwork()
        probs = [0.1, 0.5, 1.0]
        ids = a.add_leaves(np.array(probs))
        assert ids.tolist() == [b.add_leaf(p) for p in probs]
        assert_networks_equal(a, b)

    def test_add_leaves_validates_probabilities(self):
        with pytest.raises(ProbabilityError):
            AndOrNetwork().add_leaves(np.array([0.5, 1.5]))

    def test_add_gates_matches_scalar(self):
        a, b = AndOrNetwork(), AndOrNetwork()
        la = a.add_leaves(np.array([0.2, 0.3, 0.4]))
        lb = [b.add_leaf(p) for p in (0.2, 0.3, 0.4)]
        got = a.add_gates(
            NodeKind.OR,
            np.array([[la[0], la[1]], [la[1], la[2]]]),
            np.array([[1.0, 1.0], [0.5, 1.0]]),
        )
        want = [
            b.add_gate(NodeKind.OR, [(lb[0], 1.0), (lb[1], 1.0)]),
            b.add_gate(NodeKind.OR, [(lb[1], 0.5), (lb[2], 1.0)]),
        ]
        assert got.tolist() == want
        assert_networks_equal(a, b)

    def test_add_gates_memo_interoperates_with_add_gate(self):
        net = AndOrNetwork()
        l0, l1 = net.add_leaf(0.2), net.add_leaf(0.3)
        scalar = net.add_gate(NodeKind.AND, [(l0, 1.0), (l1, 1.0)])
        bulk = net.add_gates(
            NodeKind.AND, np.array([[l0, l1]]), np.ones((1, 2))
        )
        # Deterministic gates hash-cons across both APIs.
        assert bulk.tolist() == [scalar]

    def test_single_parent_deterministic_gate_collapses(self):
        net = AndOrNetwork()
        leaf = net.add_leaf(0.4)
        out = net.add_gates(
            NodeKind.AND, np.array([[leaf]]), np.array([[1.0]])
        )
        assert out.tolist() == [leaf]

    def test_add_gates_csr_offsets(self):
        a, b = AndOrNetwork(), AndOrNetwork()
        la = a.add_leaves(np.array([0.2, 0.3, 0.4]))
        lb = [b.add_leaf(p) for p in (0.2, 0.3, 0.4)]
        got = a.add_gates(
            NodeKind.OR,
            np.array([la[0], la[1], la[2], la[0]]),
            np.array([0.9, 0.8, 0.7, 0.6]),
            offsets=np.array([0, 3, 4]),
        )
        want = [
            b.add_gate(
                NodeKind.OR, [(lb[0], 0.9), (lb[1], 0.8), (lb[2], 0.7)]
            ),
            b.add_gate(NodeKind.OR, [(lb[0], 0.6)]),
        ]
        assert got.tolist() == want
        assert_networks_equal(a, b)

    def test_add_gates_rejects_bad_input(self):
        net = AndOrNetwork()
        leaf = net.add_leaf(0.5)
        with pytest.raises(ValueError):
            net.add_gates(NodeKind.LEAF, np.array([[leaf]]), np.ones((1, 1)))
        with pytest.raises(ValueError):
            net.add_gates(NodeKind.OR, np.array([[99]]), np.ones((1, 1)))
        with pytest.raises(ProbabilityError):
            net.add_gates(NodeKind.OR, np.array([[leaf]]), np.array([[2.0]]))
        with pytest.raises(ValueError):
            net.add_gates(
                NodeKind.OR,
                np.array([leaf, leaf]),
                np.ones(2),
                offsets=np.array([0, 1]),  # does not cover all parents
            )


# ----------------------------------------------------------------- operators
class TestColumnarOperators:
    def test_select_eq(self):
        row_rel, col_rel = make_pair(ROWS)
        assert_same_relation(
            select_eq(row_rel, {"A": 1}), select_eq(col_rel, {"A": 1})
        )

    def test_select_eq_unseen_value_is_empty(self):
        _, col_rel = make_pair(ROWS)
        assert len(select_eq(col_rel, {"A": 777})) == 0

    def test_select_eq_unknown_attribute(self):
        _, col_rel = make_pair(ROWS)
        with pytest.raises(SchemaError):
            select_eq(col_rel, {"Z": 1})

    def test_select_where_fallback(self):
        row_rel, col_rel = make_pair(ROWS)
        pred = lambda row: row[1] >= 20
        assert_same_relation(
            select_where(row_rel, pred), select_where(col_rel, pred)
        )

    def test_project_merges_and_deduplicates(self):
        rows = ROWS + [((3, 10), 5, 0.5), ((3, 40), 6, 0.5)]
        row_rel, col_rel = make_pair(rows, leaves=6)
        assert_same_relation(
            project(row_rel, ["A"]), project(col_rel, ["A"])
        )
        assert_networks_equal(row_rel.network, col_rel.network)

    def test_independent_project_groups_by_value_and_lineage(self):
        row_rel, col_rel = make_pair(ROWS)
        got = independent_project(col_rel, ["A"])
        want = independent_project(row_rel, ["A"])
        assert len(got.lineage) == len(want)
        for (wrow, wl, wp), crow, cl, cp in zip(
            want,
            [
                tuple(col_rel.interner.decode_column(c))
                for c in got.codes
            ],
            got.lineage.tolist(),
            got.probs.tolist(),
        ):
            assert (wrow, wl) == (crow, cl)
            assert cp == pytest.approx(wp, abs=1e-12)

    def test_deduplicate_empty(self):
        row_rel, col_rel = make_pair([])
        assert_same_relation(
            project(row_rel, ["A"]), project(col_rel, ["A"])
        )

    def test_condition_rows_and_mask(self):
        row_rel, col_rel = make_pair(ROWS)
        targets = [(1, 10), (2, 30)]
        rec_r, rec_c = [], []
        out_r = condition(
            row_rel, targets, lambda n, s, r: rec_r.append((n, s, r))
        )
        out_c = condition(
            col_rel, targets, lambda n, s, r: rec_c.append((n, s, r))
        )
        assert_same_relation(out_r, out_c)
        assert rec_r == rec_c
        assert_networks_equal(row_rel.network, col_rel.network)

    def test_condition_absent_row_raises(self):
        _, col_rel = make_pair(ROWS)
        with pytest.raises(SchemaError):
            columnar.condition(col_rel, [(9, 9)])

    def test_cset(self):
        # Both columnar sides must share one network and interner.
        net_r, net_c = AndOrNetwork(), AndOrNetwork()
        interner = ValueInterner()
        lrows = [((1,), 0.5), ((2,), 1.0)]
        rrows = [(r, p) for r, _, p in ROWS]
        lr = PLRelation(("A",), net_r, name="L")
        rr = PLRelation(("A", "B"), net_r, name="R")
        for r, p in lrows:
            lr.add(r, EPSILON, p)
        for r, p in rrows:
            rr.add(r, EPSILON, p)
        lc = lr.to_columnar(interner)
        lc.network = net_c
        rc = rr.to_columnar(interner)
        rc.network = net_c
        # (1,) is uncertain and matches two S-rows; (2,) is deterministic.
        assert cset(lr, rr, ["A"]) == [(1,)]
        assert cset(lc, rc, ["A"]) == [(1,)]
        assert columnar.cset_mask(lc, rc, ["A"]).tolist() == [True, False]

    def test_pl_join_matches_rows(self):
        net_r, net_c = AndOrNetwork(), AndOrNetwork()
        interner = ValueInterner()
        db_rows_l = [((1,), 0.5), ((2,), 0.9)]
        db_rows_r = [((1, 10), 0.5), ((1, 20), 0.6), ((2, 30), 1.0)]
        lr = PLRelation(("A",), net_r, name="L")
        rr = PLRelation(("A", "B"), net_r, name="R")
        for r, p in db_rows_l:
            lr.add(r, EPSILON, p)
        for r, p in db_rows_r:
            rr.add(r, EPSILON, p)

        def colrel(attrs, rows, name):
            return ColumnarPLRelation(
                attrs,
                net_c,
                interner,
                np.array(
                    [[interner.intern(v) for v in r] for r, _ in rows],
                    dtype=np.int64,
                ).reshape(len(rows), len(attrs)),
                np.full(len(rows), EPSILON, dtype=np.int64),
                np.array([p for _, p in rows]),
                name=name,
            )

        lc = colrel(("A",), db_rows_l, "L")
        rc = colrel(("A", "B"), db_rows_r, "R")
        out_r, cond_r = pl_join(lr, rr, ["A"])
        out_c, cond_c = pl_join(lc, rc, ["A"])
        assert cond_r == cond_c == 1
        assert_same_relation(out_r, out_c)
        assert_networks_equal(net_r, net_c)

    def test_pl_join_raw_requires_shared_network_and_interner(self):
        _, a = make_pair(ROWS)
        _, b = make_pair(ROWS)
        with pytest.raises(SchemaError):
            pl_join_raw(a, b, ["A"])
        c = ColumnarPLRelation(
            ("A", "B"),
            a.network,
            ValueInterner(),
            a.codes.copy(),
            a.lineage.copy(),
            a.probs.copy(),
        )
        with pytest.raises(SchemaError):
            pl_join_raw(a, c, ["A"])


# ----------------------------------------------------------- compiled predicates
class TestComparison:
    OPS_ON_B = {
        "==": lambda b: b == 10,
        "!=": lambda b: b != 10,
        "<": lambda b: b < 20,
        "<=": lambda b: b <= 20,
        ">": lambda b: b > 10,
        ">=": lambda b: b >= 20,
    }

    @pytest.mark.parametrize("op", sorted(OPS_ON_B))
    def test_all_ops_match_row_engine(self, op):
        row_rel, col_rel = make_pair(ROWS)
        value = 10 if op in ("==", "!=", ">") else 20
        cmp = columnar.Comparison("B", op, value)
        got = select_where(col_rel, cmp)
        want = select_where(row_rel, cmp)
        assert_same_relation(want, got)
        ref = self.OPS_ON_B[op]
        assert [r for r, _, _ in got.items()] == [
            r for r, _, _ in ROWS if ref(r[1])
        ]

    def test_unseen_constant_equal_is_empty(self):
        row_rel, col_rel = make_pair(ROWS)
        cmp = columnar.Comparison("A", "==", 777)
        assert len(select_where(col_rel, cmp)) == 0
        assert len(select_where(row_rel, cmp)) == 0

    def test_unseen_constant_not_equal_keeps_all(self):
        row_rel, col_rel = make_pair(ROWS)
        cmp = columnar.Comparison("A", "!=", 777)
        assert_same_relation(
            select_where(row_rel, cmp), select_where(col_rel, cmp)
        )
        assert len(select_where(col_rel, cmp)) == len(ROWS)

    def test_conjunction_of_comparisons(self):
        row_rel, col_rel = make_pair(ROWS)
        preds = [
            columnar.Comparison("A", "==", 2),
            columnar.Comparison("B", "<", 30),
        ]
        got = select_where(col_rel, preds)
        assert_same_relation(select_where(row_rel, preds), got)
        assert [r for r, _, _ in got.items()] == [(2, 10)]

    def test_string_ordering(self):
        rows = [
            (("ant", "x"), EPSILON, 0.5),
            (("bee", "y"), EPSILON, 0.25),
            (("cat", "z"), EPSILON, 0.75),
        ]
        row_rel, col_rel = make_pair(rows)
        cmp = columnar.Comparison("A", "<=", "bee")
        got = select_where(col_rel, cmp)
        assert_same_relation(select_where(row_rel, cmp), got)
        assert [r for r, _, _ in got.items()] == [("ant", "x"), ("bee", "y")]

    def test_unknown_operator_rejected(self):
        with pytest.raises(SchemaError):
            columnar.Comparison("A", "~", 1)

    def test_unknown_attribute_rejected(self):
        _, col_rel = make_pair(ROWS)
        with pytest.raises(SchemaError):
            select_where(col_rel, columnar.Comparison("Z", "==", 1))

    def test_matches_row_at_a_time(self):
        cmp = columnar.Comparison("A", ">=", 3)
        index_of = {"A": 0}.__getitem__
        assert cmp.matches((3, "x"), index_of)
        assert not cmp.matches((2, "x"), index_of)

    def test_mixed_list_falls_back_to_callable_error(self):
        # a list mixing Comparison with a plain callable is not a compiled
        # conjunction; it must be rejected rather than half-compiled
        _, col_rel = make_pair(ROWS)
        with pytest.raises(TypeError):
            select_where(col_rel, [columnar.Comparison("A", "==", 1), len])


# ----------------------------------------------------------------- round-trip
class TestConversions:
    def test_to_columnar_roundtrip(self):
        row_rel, _ = make_pair(ROWS)
        back = row_rel.to_columnar().to_rows()
        assert_same_relation(back, row_rel.to_columnar())
        assert list(back.items()) == list(row_rel.items())

    def test_symbolic_helpers(self):
        rows = [((1, 10), EPSILON, 0.5), ((2, 20), 3, 1.0)]
        _, col_rel = make_pair(rows, leaves=3)
        assert col_rel.symbolic_rows() == [(2, 20)]
        assert not col_rel.is_purely_extensional()


# -------------------------------------------------------------------- engine
class TestEngineKnob:
    def make_db(self):
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {("a1",): 0.5, ("a2",): 0.6})
        db.add_relation(
            "S",
            ("A", "B"),
            {
                ("a1", "b1"): 0.7,
                ("a1", "b2"): 0.8,
                ("a2", "b1"): 0.9,
                ("a2", "b2"): 1.0,
                ("a3", "b3"): 0.4,
            },
        )
        db.add_relation("T", ("B",), {("b1",): 1.0, ("b2",): 0.3})
        return db

    def test_unknown_engine_rejected(self):
        with pytest.raises(PlanError):
            PartialLineageEvaluator(self.make_db(), engine="bogus")

    def test_engines_build_identical_networks(self):
        db = self.make_db()
        query = parse_query("q(x) :- R(x), S(x,y), T(y)")
        res_r = PartialLineageEvaluator(db, engine="rows").evaluate_query(query)
        res_c = PartialLineageEvaluator(db, engine="columnar").evaluate_query(
            query
        )
        assert_networks_equal(res_r.network, res_c.network)
        assert [
            (s.operator, s.output_size, s.conditioned) for s in res_r.stats
        ] == [(s.operator, s.output_size, s.conditioned) for s in res_c.stats]
        assert [
            (o.source, o.row, o.node) for o in res_r.conditioned_tuples
        ] == [(o.source, o.row, o.node) for o in res_c.conditioned_tuples]
        ar, ac = (
            res_r.answer_probabilities(),
            res_c.answer_probabilities(),
        )
        assert set(ar) == set(ac)
        for k in ar:
            assert ac[k] == pytest.approx(ar[k], abs=1e-12)

    def test_columnar_result_relation_is_row_backed(self):
        db = self.make_db()
        query = parse_query("q(x) :- R(x), S(x,y)")
        res = PartialLineageEvaluator(db, engine="columnar").evaluate_query(
            query
        )
        assert isinstance(res.relation, PLRelation)

    def test_base_cache_reused_and_invalidated(self):
        db = self.make_db()
        query = parse_query("q(x) :- R(x), S(x,y)")
        ev = PartialLineageEvaluator(db, engine="columnar")
        first = ev.evaluate_query(query)
        assert first.base_encode == {"hits": 0, "misses": 2}
        assert len(ev.encoding) == 2
        again = ev.evaluate_query(query)
        assert again.base_encode == {"hits": 2, "misses": 0}
        assert again.answer_probabilities() == first.answer_probabilities()
        ev.invalidate_cache()
        assert not len(ev.encoding)

    def test_join_stats_record_wall_time(self):
        db = self.make_db()
        query = parse_query("q(x) :- R(x), S(x,y), T(y)")
        for engine in ("rows", "columnar"):
            res = PartialLineageEvaluator(db, engine=engine).evaluate_query(
                query
            )
            assert all(s.seconds >= 0.0 for s in res.stats)
            assert any(s.seconds > 0.0 for s in res.stats)
