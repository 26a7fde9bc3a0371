"""Columnar pL-relations: the vectorized execution backend (Section 5.3).

The row-at-a-time operators in :mod:`repro.core.operators` walk Python dicts
tuple by tuple, so on large instances the *extensional* arithmetic — the part
the paper proves is linear-time — dominates wall-clock. This module stores a
pL-relation column-wise and reimplements every operator as NumPy array
kernels:

* a ``float64`` probability column and an ``int64`` lineage-node column;
* dictionary-encoded key columns: every attribute value is interned once in a
  shared :class:`ValueInterner` and the relation stores only its ``int64``
  code, so selections, join-key comparisons, and group-bys are integer
  array operations;
* ``select_eq`` is a boolean mask; ``independent_project`` groups by
  (key, lineage) via ``np.unique`` and merges probabilities with a log-space
  ``1 - Π(1-p)`` grouped reduction; ``deduplicate`` batches whole Or groups
  into one :meth:`~repro.core.network.AndOrNetwork.add_gates` call;
  ``condition`` bulk-allocates leaves/gates; ``pl_join`` builds one
  :class:`JoinIndex` (one stable sort of both sides' fused keys) whose
  partner counts give both cSets and whose match pairs, split into
  numeric-multiply pairs and gate-needing pairs in one vectorized pass,
  give the join.

Every kernel preserves the row engine's *operation order* — first-occurrence
group ordering, left-major/right-stable match ordering, row-order
conditioning — so an evaluation through this backend allocates exactly the
same network nodes (same ids, same structure) as the reference row engine,
with probabilities agreeing to float round-off. ``tests/property`` checks
this equivalence on random databases and plans.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.plrelation import PLRelation
from repro.db.relation import ProbabilisticRelation
from repro.db.schema import Row
from repro.errors import CapacityError, SchemaError
from repro.obs.trace import span as _span

__all__ = [
    "ValueInterner",
    "BaseEncoding",
    "ColumnarPLRelation",
    "ColumnarProjected",
    "Comparison",
    "JoinIndex",
    "from_base",
    "select_eq",
    "select_where",
    "independent_project",
    "deduplicate",
    "project",
    "condition",
    "cset",
    "cset_mask",
    "pl_join_raw",
    "pl_join",
]


class ValueInterner:
    """Append-only dictionary encoding of attribute values.

    Every distinct value (by ``==``/``hash``, exactly the row engine's tuple
    equality) gets one non-negative ``int64`` code; all columnar relations of
    one evaluation share a single interner, so codes are directly comparable
    across relations and a join never has to look at the values themselves.

    Thread-safe: codes are assigned under one lock and never change, and a
    value is stored before its code is published, so lock-free readers
    (:meth:`code_of`, :meth:`decode_column`) only ever see complete entries.
    That lets one interner serve concurrent evaluations (see
    :class:`BaseEncoding`).
    """

    __slots__ = ("_codes", "_values", "_lock")

    def __init__(self) -> None:
        self._codes: dict = {}
        self._values: list = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value) -> int:
        """Code of *value*, interning it first if unseen."""
        return int(self._intern_all([value])[0])

    def code_of(self, value) -> int | None:
        """Code of *value*, or ``None`` when it was never interned (in which
        case no columnar relation anywhere contains it)."""
        return self._codes.get(value)

    def encode_column(self, values: Sequence) -> np.ndarray:
        """Encode one column of values into an ``int64`` code array.

        Numeric and all-string columns take a vectorized path: ``np.unique``
        collapses the column to its distinct values at C speed (strings as a
        fixed-width array, so the sort compares flat character buffers, not
        Python objects) and only the few distinct values pass through the
        Python-level intern dict. Everything else (mixed types, unhashable
        oddities) falls back to a plain loop.
        """
        n = len(values)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        arr = None
        try:
            arr = np.asarray(values)
        except (ValueError, TypeError):  # ragged / unconvertible
            arr = None
        if arr is not None and arr.ndim == 1:
            # A "U" dtype alone is not proof of a string column — np.asarray
            # coerces mixed int/str input to strings, which would silently
            # merge 1 and "1". Only trust it when every element really is str.
            if arr.dtype.kind in "iufb" or (
                arr.dtype.kind == "U"
                and all(isinstance(v, str) for v in values)
            ):
                uniq, inv = np.unique(arr, return_inverse=True)
                return self._intern_all(uniq.tolist())[inv]
        return self._intern_all(values)

    def _intern_all(self, values) -> np.ndarray:
        """Codes of *values* (a sequence), interning unseen ones."""
        codes = self._codes
        vals = self._values
        out = np.empty(len(values), dtype=np.int64)
        with self._lock:
            for i, v in enumerate(values):
                c = codes.get(v)
                if c is None:
                    c = len(vals)
                    vals.append(v)
                    codes[v] = c
                out[i] = c
        return out

    def decode_column(self, codes: np.ndarray) -> list:
        """Values behind a code array, as native Python objects."""
        vals = self._values
        return [vals[c] for c in codes.tolist()]


#: Transient columnar representation between independent project and
#: deduplication (the analogue of ``operators.ProjectedRows``): already
#: merged by (projected key, lineage), in first-occurrence order.
@dataclass
class ColumnarProjected:
    codes: np.ndarray  # (rows, len(attributes)) int64
    lineage: np.ndarray  # (rows,) int64
    probs: np.ndarray  # (rows,) float64


class ColumnarPLRelation:
    """A pL-relation stored column-wise over a shared And-Or network.

    Semantically identical to :class:`~repro.core.plrelation.PLRelation`
    (Definition 5.2); the representation differs: ``codes`` holds the
    dictionary-encoded key columns as an ``(n, arity)`` ``int64`` matrix,
    ``lineage`` the network node per row, ``probs`` the probability column.
    Row order is insertion order, as in the row engine.
    """

    __slots__ = (
        "attributes",
        "network",
        "interner",
        "name",
        "codes",
        "lineage",
        "probs",
        "_positions",
    )

    def __init__(
        self,
        attributes: Iterable[str],
        network: AndOrNetwork,
        interner: ValueInterner,
        codes: np.ndarray,
        lineage: np.ndarray,
        probs: np.ndarray,
        name: str = "",
    ) -> None:
        self.attributes = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"duplicate attributes: {self.attributes}")
        self.network = network
        self.interner = interner
        self.name = name
        self.codes = codes
        self.lineage = lineage
        self.probs = probs
        if codes.shape != (len(lineage), len(self.attributes)):
            raise SchemaError(
                f"code matrix {codes.shape} does not match "
                f"{len(lineage)} rows x {len(self.attributes)} attributes"
            )
        self._positions = {a: i for i, a in enumerate(self.attributes)}

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return len(self.lineage)

    def index_of(self, attribute: str) -> int:
        """Position of *attribute* in the schema."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"pL-relation {self.name!r} has no attribute {attribute!r}; "
                f"attributes are {self.attributes}"
            ) from None

    def rows(self) -> list[Row]:
        """All rows (decoded), in insertion order."""
        return self.rows_at(np.arange(len(self)))

    def rows_at(self, indices: np.ndarray) -> list[Row]:
        """The rows at *indices* (decoded), in that order."""
        k = len(self.attributes)
        if k == 0:
            return [()] * len(indices)
        codes = np.take(self.codes, indices, axis=0)
        cols = [self.interner.decode_column(codes[:, j]) for j in range(k)]
        return list(zip(*cols))

    def items(self) -> Iterator[tuple[Row, int, float]]:
        """Iterate over ``(row, lineage, probability)`` triples (decoded)."""
        lineage = self.lineage.tolist()
        probs = self.probs.tolist()
        for row, l, p in zip(self.rows(), lineage, probs):
            yield row, l, p

    def symbolic_rows(self) -> list[Row]:
        """Rows whose lineage is not ε — the intensional part."""
        return self.rows_at(np.flatnonzero(self.lineage != EPSILON))

    def is_purely_extensional(self) -> bool:
        """True when every row has trivial lineage."""
        return bool((self.lineage == EPSILON).all())

    def to_rows(self) -> PLRelation:
        """Convert to a row-engine :class:`PLRelation` (same network)."""
        with _span("to_rows", tuples=len(self)):
            out = PLRelation(self.attributes, self.network, name=self.name)
            for row, l, p in self.items():
                out.add(row, l, p)
            return out

    def _take(
        self, indices: np.ndarray, name: str, positions: Sequence[int] | None = None
    ) -> "ColumnarPLRelation":
        """Gather a row subset (and optionally a column subset) by index."""
        codes = self.codes[indices]
        attrs = self.attributes
        if positions is not None:
            codes = codes[:, positions]
            attrs = tuple(self.attributes[j] for j in positions)
        return ColumnarPLRelation(
            attrs,
            self.network,
            self.interner,
            codes,
            self.lineage[indices],
            self.probs[indices],
            name=name,
        )

    def __repr__(self) -> str:
        sym = int((self.lineage != EPSILON).sum())
        return (
            f"<ColumnarPLRelation {self.name!r}({', '.join(self.attributes)}) "
            f"{len(self)} rows, {sym} symbolic>"
        )


# ----------------------------------------------------------------- construction
def from_base(
    relation: ProbabilisticRelation,
    network: AndOrNetwork,
    interner: ValueInterner,
    attributes: Iterable[str] | None = None,
) -> ColumnarPLRelation:
    """Lift an independent relation column-wise: every tuple gets lineage ε."""
    attrs = tuple(
        attributes if attributes is not None else relation.schema.attributes
    )
    codes, probs = encode_base(relation, interner)
    lineage = np.full(len(relation), EPSILON, dtype=np.int64)
    return ColumnarPLRelation(
        attrs, network, interner, codes, lineage, probs, name=relation.name
    )


def encode_base(
    relation: ProbabilisticRelation, interner: ValueInterner
) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode a base relation: ``(codes matrix, probability column)``.

    Network-independent (base tuples all carry lineage ε), so the result can
    be cached across evaluations sharing one interner.
    """
    n = len(relation)
    k = relation.schema.arity
    codes = np.empty((n, k), dtype=np.int64)
    if not n:
        return codes, np.empty(0, dtype=np.float64)
    with _span("encode_base", relation=relation.name, tuples=n):
        return _encode_base(relation, interner, codes, n, k)


def _encode_base(relation, interner, codes, n, k):
    rows = relation.rows()
    probs = np.fromiter(
        (p for _, p in relation.items()), dtype=np.float64, count=n
    )
    # Homogeneous numeric relations convert to one (n, k) matrix at C speed,
    # so per column only the distinct values touch the Python-level interner.
    arr = None
    if k:
        try:
            arr = np.asarray(rows)
        except (ValueError, TypeError):
            arr = None
        if arr is not None and (
            arr.shape != (n, k) or arr.dtype.kind not in "iufb"
        ):
            arr = None
    if arr is not None:
        for j in range(k):
            uniq, inv = np.unique(arr[:, j], return_inverse=True)
            codes[:, j] = interner._intern_all(uniq.tolist())[inv]
    else:
        columns = list(zip(*rows))
        for j in range(k):
            codes[:, j] = interner.encode_column(columns[j])
    return codes, probs


class BaseEncoding:
    """Dictionary encodings of base relations, shared by many evaluations.

    One :class:`ValueInterner` plus a per-relation cache of ``(codes,
    probs)`` as produced by :func:`encode_base`. A long-lived holder (a
    :class:`~repro.serve.Server`, or one evaluator across the join orders
    the optimizer costs) hands the same instance to every
    :class:`~repro.core.executor.PartialLineageEvaluator` and
    :class:`~repro.dissociation.DissociationEvaluator` it builds, so a
    relation no mutation touched is encoded once, on its first scan.

    An entry is valid only for the exact relation object it encoded (an
    ``is`` check against the reference it holds — a freed object's ``id``
    can be reused) at the :attr:`~repro.db.ProbabilisticRelation.mutations`
    count it saw. A transactional commit installs new relation objects, so
    only the touched relations miss; an in-place mutation bumps the count,
    so it misses too. A holder subscribed to the database's mutation hooks
    (the server is) calls :meth:`invalidate` to free a mutated relation's
    entries at once. At most :attr:`max_versions` encodings are kept per
    relation name: readers of older snapshots can stay warm while a newer
    version is served, and the cache stays bounded under any number of
    commits.

    Thread-safe: lookups and stores take one short lock, and the encode
    itself runs outside it (the interner locks its own code assignment).
    Two threads missing on the same relation at once both encode it; both
    results are equal, and the later store replaces the earlier.
    """

    #: Encoded versions kept per relation name.
    max_versions = 2

    __slots__ = ("interner", "hits", "misses", "_entries", "_lock")

    def __init__(self) -> None:
        self.interner = ValueInterner()
        #: Scans served from the cache / scans that had to encode.
        self.hits = 0
        self.misses = 0
        # name -> [(relation, mutations, codes, probs)], oldest first
        self._entries: dict[str, list[tuple]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of cached encodings (over all relations and versions)."""
        with self._lock:
            return sum(len(v) for v in self._entries.values())

    def arrays(
        self, relation: ProbabilisticRelation
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """``(codes, probs, hit)`` for *relation*, encoding it on a miss.

        The arrays are shared with every other reader: treat them as
        read-only.
        """
        name = relation.name
        stamp = relation.mutations
        with self._lock:
            for rel, seen, codes, probs in self._entries.get(name, ()):
                if rel is relation and seen == stamp:
                    self.hits += 1
                    return codes, probs, True
            self.misses += 1
        codes, probs = encode_base(relation, self.interner)
        with self._lock:
            versions = [
                e for e in self._entries.get(name, ()) if e[0] is not relation
            ]
            versions.append((relation, stamp, codes, probs))
            self._entries[name] = versions[-self.max_versions:]
        return codes, probs, False

    def invalidate(self, name: str | None = None) -> None:
        """Drop the encodings of relation *name* (all relations when
        ``None``); the signature fits a database mutation hook."""
        with self._lock:
            if name is None:
                self._entries.clear()
            else:
                self._entries.pop(name, None)

    def as_dict(self) -> dict:
        """Counters for reports and ``Server.stats()``."""
        with self._lock:
            entries = sum(len(v) for v in self._entries.values())
            relations = len(self._entries)
            hits, misses = self.hits, self.misses
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "relations": relations,
            "entries": entries,
            "values": len(self.interner),
        }


def from_plrelation(
    rel: PLRelation, interner: ValueInterner
) -> ColumnarPLRelation:
    """Columnar view of a row-engine pL-relation (shares its network)."""
    n = len(rel)
    k = len(rel.attributes)
    codes = np.empty((n, k), dtype=np.int64)
    lineage = np.empty(n, dtype=np.int64)
    probs = np.empty(n, dtype=np.float64)
    rows = rel.rows()
    if n:
        columns = list(zip(*rows)) if k else []
        for j in range(k):
            codes[:, j] = interner.encode_column(columns[j])
        for i, row in enumerate(rows):
            lineage[i] = rel.lineage(row)
            probs[i] = rel.probability(row)
    return ColumnarPLRelation(
        rel.attributes, rel.network, interner, codes, lineage, probs,
        name=rel.name,
    )


# ------------------------------------------------------------------- grouping
def _fuse(n: int, cols: list[np.ndarray]) -> np.ndarray:
    """Fuse non-negative code columns into one ``int64`` key per row.

    Mixed-radix packing; columns fused together must come from one shared
    code space (concatenate both sides of a join before fusing). Falls back
    to densifying intermediate keys if the radix product approaches 2^62.
    """
    if not cols:
        return np.zeros(n, dtype=np.int64)
    out = cols[0].astype(np.int64, copy=True)
    for c in cols[1:]:
        radix = int(c.max()) + 1 if c.size else 1
        hi = int(out.max()) if out.size else 0
        if (hi + 1) * radix >= 2 ** 62:
            _, out = np.unique(out, return_inverse=True)
            hi = int(out.max()) if out.size else 0
            if (hi + 1) * radix >= 2 ** 62:
                raise CapacityError(
                    "composite key space exceeds 62 bits even after "
                    "densification"
                )
        out = out * radix + c
    return out


def _group_first_occurrence(
    n: int, cols: list[np.ndarray]
) -> tuple[np.ndarray, int, np.ndarray]:
    """Group rows by the fused key, numbering groups in first-occurrence
    order (the row engine's dict-insertion order).

    Returns ``(group id per row, group count, first row index per group)``.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64)
    fused = _fuse(n, cols)
    _, first, inverse = np.unique(
        fused, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[inverse], order.size, first[order]


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start+count)`` blocks, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(starts, counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return reps + offs


class JoinIndex:
    """One equi-join's key grouping, shared by every step of a safe join.

    The key columns of both sides are fused once, in one code space, and
    the concatenated left+right keys get one stable ``argsort``. Within a
    key's run of the sorted order, the left rows come first and then the
    right rows, each in insertion order. Three things follow from that one
    sort:

    * :attr:`left_partners`: per left row, the number of right rows with
      its key;
    * :attr:`right_partners`: per right row, the number of left rows with
      its key;
    * :meth:`pairs`: the match pairs ``(li, ri)``, left-major, with the
      right rows of a key in insertion order (the row engine's order).

    The index reads only code matrices and key positions, so any columnar
    relation can use it. It stays valid for relations whose lineage and
    probabilities changed but whose keys did not, which is what
    conditioning does.
    """

    __slots__ = ("left_partners", "right_partners", "_order", "_starts", "_nl")

    def __init__(
        self,
        left_codes: np.ndarray,
        left_positions: Sequence[int],
        right_codes: np.ndarray,
        right_positions: Sequence[int],
    ) -> None:
        nl, nr = len(left_codes), len(right_codes)
        n = nl + nr
        keys = _fuse(
            n,
            [
                np.concatenate([left_codes[:, lj], right_codes[:, rj]])
                for lj, rj in zip(left_positions, right_positions)
            ],
        )
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        new_key = np.ones(n, dtype=bool)
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_key[1:])
        group_starts = np.flatnonzero(new_key)
        sizes = np.diff(np.append(group_starts, n))
        sorted_gid = np.cumsum(new_key) - 1
        lcount = np.bincount(
            sorted_gid[order < nl], minlength=group_starts.size
        )
        gid = np.empty(n, dtype=np.int64)
        gid[order] = sorted_gid
        lgid, rgid = gid[:nl], gid[nl:]
        self.left_partners = (sizes - lcount)[lgid]
        self.right_partners = lcount[rgid]
        self._order = order
        # Per left row: where its key's right rows start in the sort.
        self._starts = (group_starts + lcount)[lgid]
        self._nl = nl

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Match pairs ``(li, ri)``: left-major, right insertion order."""
        counts = self.left_partners
        li = np.repeat(np.arange(self._nl, dtype=np.int64), counts)
        ri = self._order[_concat_ranges(self._starts, counts)] - self._nl
        return li, ri


# --------------------------------------------------------------------- select
def select_eq(
    rel: ColumnarPLRelation, conditions: Mapping[str, object]
) -> ColumnarPLRelation:
    """Vectorized ``σ_{A=a, ...}``: one boolean mask over the code columns."""
    mask = np.ones(len(rel), dtype=bool)
    for attr, value in conditions.items():
        j = rel.index_of(attr)
        code = rel.interner.code_of(value)
        if code is None:
            mask[:] = False
            break
        mask &= rel.codes[:, j] == code
    return rel._take(np.flatnonzero(mask), name=f"σ({rel.name})")


#: Comparison operators :class:`Comparison` can compile. ``>`` / ``>=`` ride
#: along for symmetry — they are the mirrored ``<`` / ``<=``.
_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    """A compilable selection predicate ``attribute <op> constant``.

    Handed to :func:`select_where` (either engine) instead of a callable,
    the predicate is evaluated as array expressions over the
    dictionary-encoded column — no per-row Python call, no row decoding:

    * ``==`` / ``!=`` compare codes directly: equal values share a code by
      construction, so one interner lookup turns the predicate into a single
      integer comparison against the column;
    * ``<`` / ``<=`` / ``>`` / ``>=`` cannot read off codes (interning order
      is first-appearance, not value order), so the column is collapsed to
      its *distinct* codes with ``np.unique``, only those few values are
      decoded and compared in Python, and the verdicts are gathered back
      over the rows — O(distinct) comparisons instead of O(rows).

    Examples
    --------
    >>> Comparison("A", "<", 3).matches((2, "x"), lambda a: 0)
    True
    """

    attribute: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise SchemaError(
                f"unknown comparison operator {self.op!r}; "
                f"choose from {_COMPARISON_OPS}"
            )

    def matches(self, row, index_of) -> bool:
        """Row-at-a-time evaluation (the row engine's path)."""
        v = row[index_of(self.attribute)]
        if self.op == "==":
            return v == self.value
        if self.op == "!=":
            return v != self.value
        if self.op == "<":
            return v < self.value
        if self.op == "<=":
            return v <= self.value
        if self.op == ">":
            return v > self.value
        return v >= self.value

    def mask(self, rel: "ColumnarPLRelation") -> np.ndarray:
        """Boolean row mask over a columnar relation (the compiled path)."""
        column = rel.codes[:, rel.index_of(self.attribute)]
        if self.op in ("==", "!="):
            code = rel.interner.code_of(self.value)
            if code is None:
                return np.full(len(rel), self.op == "!=", dtype=bool)
            return column == code if self.op == "==" else column != code
        uniq, inv = np.unique(column, return_inverse=True)
        values = rel.interner.decode_column(uniq)
        verdicts = np.fromiter(
            (
                self.matches((v,), lambda _attr: 0)
                for v in values
            ),
            dtype=bool,
            count=uniq.size,
        )
        return verdicts[inv]


def select_where(rel: ColumnarPLRelation, predicate) -> ColumnarPLRelation:
    """Selection with a row predicate — compiled when possible.

    *predicate* may be a :class:`Comparison`, an iterable of them (their
    conjunction), or an arbitrary callable. Comparisons are compiled to
    array expressions over the encoded columns; the callable form is the
    exotic-predicate fallback: decode once, evaluate per row, then gather
    with one mask.
    """
    compiled = _as_comparisons(predicate)
    if compiled is not None:
        mask = np.ones(len(rel), dtype=bool)
        for comparison in compiled:
            mask &= comparison.mask(rel)
    else:
        mask = np.fromiter(
            (bool(predicate(row)) for row in rel.rows()),
            dtype=bool,
            count=len(rel),
        )
    return rel._take(np.flatnonzero(mask), name=f"σ({rel.name})")


def _as_comparisons(predicate) -> list[Comparison] | None:
    """*predicate* as a conjunction of comparisons, or ``None`` (callable)."""
    if isinstance(predicate, Comparison):
        return [predicate]
    if isinstance(predicate, (list, tuple)) and all(
        isinstance(c, Comparison) for c in predicate
    ):
        return list(predicate)
    return None


# -------------------------------------------------------------------- project
def independent_project(
    rel: ColumnarPLRelation, attributes: Sequence[str]
) -> ColumnarProjected:
    """Vectorized independent project (Sec 5.3.2): group by (key, lineage),
    merge probabilities as ``1 - Π(1-p)`` via a log-space grouped reduction."""
    positions = [rel.index_of(a) for a in attributes]
    n = len(rel)
    cols = [rel.codes[:, j] for j in positions] + [rel.lineage]
    gid, groups, first = _group_first_occurrence(n, cols)
    counts = np.bincount(gid, minlength=groups)
    with np.errstate(divide="ignore"):
        logs = np.log1p(-rel.probs)
    sums = np.bincount(gid, weights=logs, minlength=groups)
    # Clamp the fold into [0, 1]: expm1 rounding on many near-1 inputs can
    # overshoot by an ulp, and an out-of-range probability poisons inference.
    probs = np.clip(-np.expm1(sums), 0.0, 1.0)
    # Singleton groups pass their probability through bit-exactly.
    single = counts == 1
    probs[single] = rel.probs[first[single]]
    codes = rel.codes[first][:, positions] if positions else np.empty(
        (groups, 0), dtype=np.int64
    )
    return ColumnarProjected(
        codes=codes, lineage=rel.lineage[first], probs=probs
    )


def deduplicate(
    rel: ColumnarPLRelation,
    attributes: Sequence[str],
    projected: ColumnarProjected,
) -> ColumnarPLRelation:
    """Vectorized deduplication (Sec 5.3.2): same-value groups become one row
    through an Or node, with the whole batch of Or gates allocated in one
    :meth:`~repro.core.network.AndOrNetwork.add_gates` call."""
    net = rel.network
    lineage, probs, codes = projected.lineage, projected.probs, projected.codes
    n = len(lineage)
    k = codes.shape[1]
    cols = [codes[:, j] for j in range(k)]
    gid, groups, first = _group_first_occurrence(n, cols)
    counts = np.bincount(gid, minlength=groups)
    out_lineage = np.empty(groups, dtype=np.int64)
    out_probs = np.empty(groups, dtype=np.float64)
    single = counts == 1
    out_lineage[single] = lineage[first[single]]
    out_probs[single] = probs[first[single]]
    multi = np.flatnonzero(~single)
    if multi.size:
        order = np.argsort(gid, kind="stable")
        sorted_gid = gid[order]
        seg_starts = np.searchsorted(sorted_gid, multi)
        seg_counts = counts[multi]
        flat = order[_concat_ranges(seg_starts, seg_counts)]
        offsets = np.zeros(multi.size + 1, dtype=np.int64)
        np.cumsum(seg_counts, out=offsets[1:])
        gates = net.add_gates(
            NodeKind.OR, lineage[flat], probs[flat], offsets=offsets
        )
        out_lineage[multi] = gates
        out_probs[multi] = 1.0
    return ColumnarPLRelation(
        tuple(attributes),
        net,
        rel.interner,
        codes[first],
        out_lineage,
        out_probs,
        name=f"π({rel.name})",
    )


def project(
    rel: ColumnarPLRelation, attributes: Sequence[str]
) -> ColumnarPLRelation:
    """Full projection ``π_A``: independent project + deduplication."""
    return deduplicate(rel, attributes, independent_project(rel, attributes))


# ---------------------------------------------------------------- conditioning
def _target_mask(rel: ColumnarPLRelation, rows: Iterable[Row]) -> np.ndarray:
    """Boolean mask of the given rows; raises on rows absent from *rel*."""
    targets = [tuple(r) for r in rows]
    if not targets:
        return np.zeros(len(rel), dtype=bool)
    interner = rel.interner
    k = len(rel.attributes)
    keys = np.empty((len(targets), k), dtype=np.int64)
    missing: list[Row] = []
    for i, row in enumerate(targets):
        if len(row) != k:
            raise SchemaError(
                f"row {row!r} has arity {len(row)}, expected {k}"
            )
        ok = True
        for j, v in enumerate(row):
            code = interner.code_of(v)
            if code is None:
                ok = False
                break
            keys[i, j] = code
        if not ok:
            missing.append(row)
            keys[i, :] = -1
    n = len(rel)
    cols = [
        np.concatenate([rel.codes[:, j], np.maximum(keys[:, j], 0)])
        for j in range(k)
    ]
    fused = _fuse(n + len(targets), cols)
    rel_keys, target_keys = fused[:n], fused[n:]
    valid = (keys >= 0).all(axis=1) if k else np.ones(len(targets), dtype=bool)
    present = np.isin(target_keys, rel_keys) & valid
    if not present.all():
        decoded = [targets[i] for i in np.flatnonzero(~present).tolist()]
        raise SchemaError(
            f"cannot condition on absent rows: {sorted(decoded)}"
        )
    return np.isin(rel_keys, target_keys[present])


def condition(
    rel: ColumnarPLRelation, rows, recorder=None
) -> ColumnarPLRelation:
    """Vectorized ``Cond`` (Sec 5.3.3).

    *rows* is either a boolean mask over the relation or an iterable of row
    tuples. Uncertain ε-rows get bulk-allocated leaves; uncertain rows that
    already carry lineage get single-parent And gates — in row order, in runs,
    so node ids match the row engine's one-at-a-time allocation exactly.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == bool:
        mask = rows
    else:
        mask = _target_mask(rel, rows)
    net = rel.network
    todo = np.flatnonzero(mask & (rel.probs < 1.0))
    lineage = rel.lineage.copy()
    probs = rel.probs.copy()
    out = ColumnarPLRelation(
        rel.attributes,
        net,
        rel.interner,
        rel.codes,
        lineage,
        probs,
        name=f"cond({rel.name})",
    )
    if todo.size == 0:
        return out
    is_eps = rel.lineage[todo] == EPSILON
    new_nodes = np.empty(todo.size, dtype=np.int64)
    # Allocate in row order, in maximal same-kind runs, to keep node ids
    # identical to the scalar path's interleaved allocation.
    boundaries = np.flatnonzero(is_eps[1:] != is_eps[:-1]) + 1
    run_starts = np.concatenate([[0], boundaries, [todo.size]])
    for s, e in zip(run_starts[:-1], run_starts[1:]):
        seg = todo[s:e]
        if is_eps[s]:
            new_nodes[s:e] = net.add_leaves(rel.probs[seg])
        else:
            new_nodes[s:e] = net.add_gates(
                NodeKind.AND,
                rel.lineage[seg][:, None],
                rel.probs[seg][:, None],
            )
    lineage[todo] = new_nodes
    probs[todo] = 1.0
    if recorder is not None:
        for row, node in zip(rel.rows_at(todo), new_nodes.tolist()):
            recorder(node, rel.name, row)
    return out


# ----------------------------------------------------------------------- join
def _join_positions(
    left: ColumnarPLRelation, right: ColumnarPLRelation, on: Sequence[str]
) -> tuple[list[int], list[int], list[int]]:
    lpos = [left.index_of(a) for a in on]
    rpos = [right.index_of(a) for a in on]
    keep = [i for i, a in enumerate(right.attributes) if a not in set(on)]
    return lpos, rpos, keep


def _join_index(
    left: ColumnarPLRelation, right: ColumnarPLRelation, on: Sequence[str]
) -> tuple[JoinIndex, list[int]]:
    """The join index of *left* ⋈ *right* on *on*, plus the kept right
    columns."""
    lpos, rpos, keep = _join_positions(left, right, on)
    return JoinIndex(left.codes, lpos, right.codes, rpos), keep


def cset_mask(
    left: ColumnarPLRelation, right: ColumnarPLRelation, on: Sequence[str]
) -> np.ndarray:
    """Boolean mask of *left*'s offending tuples (Definition 5.14):
    uncertain and joining with more than one tuple of *right*."""
    index, _ = _join_index(left, right, on)
    return (left.probs < 1.0) & (index.left_partners > 1)


def cset(
    left: ColumnarPLRelation, right: ColumnarPLRelation, on: Sequence[str]
) -> list[Row]:
    """``cSet(left, right)`` as decoded rows (row-engine API parity)."""
    return left.rows_at(np.flatnonzero(cset_mask(left, right, on)))


def _check_shared(left: ColumnarPLRelation, right: ColumnarPLRelation) -> None:
    if left.network is not right.network:
        raise SchemaError("pL-join requires both sides to share one network")
    if left.interner is not right.interner:
        raise SchemaError(
            "columnar pL-join requires both sides to share one interner"
        )


def pl_join_raw(
    left: ColumnarPLRelation, right: ColumnarPLRelation, on: Sequence[str]
) -> ColumnarPLRelation:
    """Vectorized ``⋈_pL`` (Definition 5.13), *without* conditioning.

    The :class:`JoinIndex` yields match index pairs in the row engine's
    order (left-major, right insertion order within a key); one vectorized
    pass then splits pairs whose sides both carry lineage (batched And
    gates) from pairs folded by numeric multiplication.
    """
    _check_shared(left, right)
    index, keep = _join_index(left, right, on)
    return _join_pairs(left, right, keep, *index.pairs())


def _join_pairs(
    left: ColumnarPLRelation,
    right: ColumnarPLRelation,
    keep: Sequence[int],
    li: np.ndarray,
    ri: np.ndarray,
) -> ColumnarPLRelation:
    """The ``⋈_pL`` output of the match pairs ``(li, ri)``."""
    net = left.network
    ll = left.lineage[li]
    rl = right.lineage[ri]
    lp = left.probs[li]
    rp = right.probs[ri]
    out_lineage = np.where(rl == EPSILON, ll, rl)
    out_probs = lp * rp
    both = np.flatnonzero((ll != EPSILON) & (rl != EPSILON))
    if both.size:
        parents = np.stack([ll[both], rl[both]], axis=1)
        edge_probs = np.stack([lp[both], rp[both]], axis=1)
        out_lineage[both] = net.add_gates(NodeKind.AND, parents, edge_probs)
        out_probs[both] = 1.0

    out_attrs = left.attributes + tuple(right.attributes[i] for i in keep)
    # np.take gathers whole rows several times faster than fancy indexing.
    out_codes = np.concatenate(
        [
            np.take(left.codes, li, axis=0),
            np.take(right.codes[:, keep], ri, axis=0),
        ],
        axis=1,
    )
    return ColumnarPLRelation(
        out_attrs,
        net,
        left.interner,
        out_codes,
        out_lineage,
        out_probs,
        name=f"({left.name}⋈{right.name})",
    )


def pl_join(
    left: ColumnarPLRelation,
    right: ColumnarPLRelation,
    on: Sequence[str],
    recorder=None,
) -> tuple[ColumnarPLRelation, int]:
    """Safe join (Theorem 5.16): condition both sides on their cSets, then
    ``⋈_pL`` — all steps vectorized. Returns (joined, conditioned count).

    One :class:`JoinIndex` serves all three steps: its partner counts give
    both cSets, and its pairs, still valid after conditioning (which
    changes lineage, not keys), give the join.
    """
    _check_shared(left, right)
    index, keep = _join_index(left, right, on)
    lmask = (left.probs < 1.0) & (index.left_partners > 1)
    rmask = (right.probs < 1.0) & (index.right_partners > 1)
    left2 = condition(left, lmask, recorder) if lmask.any() else left
    right2 = condition(right, rmask, recorder) if rmask.any() else right
    joined = _join_pairs(left2, right2, keep, *index.pairs())
    return joined, int(lmask.sum()) + int(rmask.sum())
