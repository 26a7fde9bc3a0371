"""The columnar join index against dict-based oracles.

:class:`~repro.core.columnar.JoinIndex` sorts one join's keys once and
derives both sides' partner counts and the match pairs from that sort. These
tests hold it to plain dict loops and to the row engine's ``cset`` /
``pl_join_raw`` / ``pl_join``: empty sides, all-certain rows, duplicate
keys, zero-, one- and two-column keys, and codes large enough that ``_fuse``
has to densify.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar, operators
from repro.core.columnar import ColumnarPLRelation, JoinIndex, ValueInterner
from repro.core.network import EPSILON, AndOrNetwork
from repro.core.plrelation import PLRelation

from tests.core.test_columnar import assert_networks_equal

SETTINGS = settings(max_examples=150, deadline=None)

#: Pre-seeded leaves both networks share, so rows can carry lineage.
LEAVES = 3

#: Added to every code when the example asks for huge codes: two such key
#: columns overflow the 62-bit mixed-radix product and force densification.
HUGE = 2 ** 40


@st.composite
def join_sides(draw):
    """Two sides of an equi-join on ``K0..K{arity-1}``, as value rows.

    Each side has the key columns plus one private column (``L`` / ``R``)
    and is a set of rows, as a pL-relation is. Every row carries a
    probability and a lineage node (ε or one of the pre-seeded leaves).
    """
    arity = draw(st.integers(0, 2))
    huge = draw(st.booleans())
    certain = draw(st.booleans())
    value = st.integers(0, 2).map(lambda v: v + HUGE if huge else v)
    prob = st.just(1.0) if certain else st.sampled_from([1.0, 0.5, 0.25])
    lineage = st.sampled_from([EPSILON, EPSILON] + list(range(1, LEAVES + 1)))

    def side():
        rows = draw(
            st.lists(
                st.tuples(*[value] * (arity + 1)), max_size=8, unique=True
            )
        )
        return [(r, draw(lineage), draw(prob)) for r in rows]

    on = [f"K{j}" for j in range(arity)]
    return on, side(), side()


def _networks():
    nets = AndOrNetwork(), AndOrNetwork()
    for net in nets:
        for _ in range(LEAVES):
            net.add_leaf(0.5)
    return nets


def _row_rel(attrs, rows, net, name):
    rel = PLRelation(attrs, net, name=name)
    for r, l, p in rows:
        rel.add(r, l, p)
    return rel


def _col_rel(attrs, rows, net, interner, name, raw=False):
    """Columnar twin of *rows*: codes are the values themselves when *raw*
    (so huge values reach ``_fuse`` as huge codes), interned otherwise."""
    encode = (lambda v: v) if raw else interner.intern
    return ColumnarPLRelation(
        attrs,
        net,
        interner,
        np.array(
            [[encode(v) for v in r] for r, _, _ in rows], dtype=np.int64
        ).reshape(len(rows), len(attrs)),
        np.array([l for _, l, _ in rows], dtype=np.int64),
        np.array([p for _, _, p in rows], dtype=np.float64),
        name=name,
    )


def _pairs_of(rows_r, rows_c, on, raw):
    net_r, net_c = _networks()
    interner = ValueInterner()
    left_attrs, right_attrs = (*on, "L"), (*on, "R")
    return (
        _row_rel(left_attrs, rows_r, net_r, "A"),
        _row_rel(right_attrs, rows_c, net_r, "B"),
        _col_rel(left_attrs, rows_r, net_c, interner, "A", raw),
        _col_rel(right_attrs, rows_c, net_c, interner, "B", raw),
    )


def _assert_same(row_rel, col_rel):
    """Same rows in the same order, same lineage, same probabilities.
    Compares codes against values, so only for raw-coded relations."""
    got = [
        (tuple(c), l, p)
        for c, l, p in zip(
            col_rel.codes.tolist(), col_rel.lineage.tolist(),
            col_rel.probs.tolist(),
        )
    ]
    assert got == list(row_rel.items())


@given(join_sides())
@SETTINGS
def test_index_matches_dict_oracle(sides):
    on, left, right = sides
    arity = len(on)
    lcodes = np.array([r for r, _, _ in left], dtype=np.int64).reshape(
        len(left), arity + 1
    )
    rcodes = np.array([r for r, _, _ in right], dtype=np.int64).reshape(
        len(right), arity + 1
    )
    index = JoinIndex(lcodes, range(arity), rcodes, range(arity))

    lkeys = [r[:arity] for r, _, _ in left]
    rkeys = [r[:arity] for r, _, _ in right]
    right_by_key = defaultdict(list)
    for j, k in enumerate(rkeys):
        right_by_key[k].append(j)
    left_per_key = defaultdict(int)
    for k in lkeys:
        left_per_key[k] += 1

    assert index.left_partners.tolist() == [
        len(right_by_key[k]) for k in lkeys
    ]
    assert index.right_partners.tolist() == [left_per_key[k] for k in rkeys]
    li, ri = index.pairs()
    assert list(zip(li.tolist(), ri.tolist())) == [
        (i, j) for i, k in enumerate(lkeys) for j in right_by_key[k]
    ]


@given(join_sides())
@SETTINGS
def test_join_matches_row_engine(sides):
    on, left, right = sides
    lr, rr, lc, rc = _pairs_of(left, right, on, raw=True)
    index = {tuple(r): i for i, (r, _, _) in enumerate(left)}
    rindex = {tuple(r): i for i, (r, _, _) in enumerate(right)}

    expected = [index[r] for r in operators.cset(lr, rr, on)]
    assert np.flatnonzero(columnar.cset_mask(lc, rc, on)).tolist() == expected
    expected = [rindex[r] for r in operators.cset(rr, lr, on)]
    assert np.flatnonzero(columnar.cset_mask(rc, lc, on)).tolist() == expected

    _assert_same(
        operators.pl_join_raw(lr, rr, on), columnar.pl_join_raw(lc, rc, on)
    )
    assert_networks_equal(lr.network, lc.network)

    out_r, cond_r = operators.pl_join(lr, rr, on)
    out_c, cond_c = columnar.pl_join(lc, rc, on)
    assert cond_c == cond_r
    _assert_same(out_r, out_c)
    assert_networks_equal(lr.network, lc.network)


@given(join_sides())
@SETTINGS
def test_safe_join_provenance_matches_row_engine(sides):
    on, left, right = sides
    lr, rr, lc, rc = _pairs_of(left, right, on, raw=False)
    rec_r, rec_c = [], []
    out_r, cond_r = operators.pl_join(
        lr, rr, on, lambda n, s, r: rec_r.append((n, s, r))
    )
    out_c, cond_c = columnar.pl_join(
        lc, rc, on, lambda n, s, r: rec_c.append((n, s, r))
    )
    assert cond_c == cond_r == len(rec_r)
    assert rec_c == rec_r
    assert list(out_c.items()) == list(out_r.items())
    assert columnar.cset(lc, rc, on) == operators.cset(lr, rr, on)
    assert_networks_equal(lr.network, lc.network)


def test_few_offenders_never_decode_the_whole_relation(monkeypatch):
    """Conditioning decodes only the rows it conditions: a join over
    thousands of rows with three offenders must not call ``rows()``."""
    n = 3000
    left = [((f"a{i}",), EPSILON, 0.5) for i in range(n)]
    right = [((f"a{i}", f"b{i}"), EPSILON, 0.5) for i in range(n)]
    right += [((f"a{i}", "extra"), EPSILON, 0.5) for i in (7, 1500, 2999)]
    net_r, net_c = AndOrNetwork(), AndOrNetwork()
    interner = ValueInterner()
    lr = _row_rel(("A",), left, net_r, "R")
    rr = _row_rel(("A", "B"), right, net_r, "S")
    lc = _col_rel(("A",), left, net_c, interner, "R")
    rc = _col_rel(("A", "B"), right, net_c, interner, "S")
    rec_r, rec_c = [], []
    out_r, cond_r = operators.pl_join(
        lr, rr, ["A"], lambda n, s, r: rec_r.append((n, s, r))
    )

    def refuse(self):
        raise AssertionError("decoded the whole relation")

    monkeypatch.setattr(ColumnarPLRelation, "rows", refuse)
    out_c, cond_c = operators.pl_join(
        lc, rc, ["A"], lambda n, s, r: rec_c.append((n, s, r))
    )
    monkeypatch.undo()

    assert cond_c == cond_r == 3
    assert rec_c == rec_r
    assert [row for _, _, row in rec_c] == [("a7",), ("a1500",), ("a2999",)]
    assert list(out_c.items()) == list(out_r.items())
    assert_networks_equal(net_r, net_c)


@pytest.mark.parametrize("nl, nr", [(0, 0), (0, 3), (3, 0)])
def test_empty_sides(nl, nr):
    lcodes = np.zeros((nl, 1), dtype=np.int64)
    rcodes = np.zeros((nr, 1), dtype=np.int64)
    index = JoinIndex(lcodes, [0], rcodes, [0])
    assert index.left_partners.tolist() == [0] * nl
    assert index.right_partners.tolist() == [0] * nr
    li, ri = index.pairs()
    assert li.size == ri.size == 0
